package interp

import (
	"slices"

	"diode/internal/taint"
)

// Machine executes a Compiled program with the same small-step semantics as
// the tree-walking interpreter (byte-identical Outcomes — pinned by the
// parity tests) but through the direct-threaded dispatch loop in threaded.go:
// one flat instruction stream per function, slot-indexed frames instead of
// string-keyed maps, an explicit value/bool/call stack instead of Go-level
// recursion, and all per-run storage reused across Reset/Run cycles — frame
// slots, the operand stacks, block bookkeeping, the outcome's event slices,
// and the per-input-byte taint-label cache. One
// Machine executing the same program thousands of times — the Figure 7
// enforcement loop, the §5.5/§5.6 success-rate sweeps — therefore pays
// allocation and name-resolution costs once instead of per run; a plain-mode
// (no taint, no symbolic) Run allocates nothing at all once warm.
//
// A Machine is not safe for concurrent use; create one per goroutine (the
// core Hunter owns one per site hunt, which keeps concurrent hunts free of
// shared mutable state — the seam their determinism rests on). The Outcome
// returned by Run aliases machine-internal storage and is valid only until
// the next Reset; callers that retain parts of it (the Analyzer keeps seed
// branch traces in Targets) must copy them first.
type Machine struct {
	code  *Compiled
	input []byte
	opts  Options
	meter

	frames  []cframe // frame stack; frames[fp] is the active frame
	fp      int
	globals cframe

	// Operand and call stacks for the dispatch loop, sized on demand and
	// retained across runs.
	stack  []value
	bstack []bval
	calls  []callSite

	blocks     map[uint64]*block
	freeBlocks []*block // recycled blocks, cells cleared
	canary     *block   // first block whose red zone was clobbered
	nextID     uint64

	out   Outcome
	ready bool
	plain bool // run tracks neither taint nor symbolic state

	// Per-input-byte taint label sets, valid across runs.
	inTaints []*taint.Set
}

// eventPoolCap bounds the event-slice capacity a Machine retains across
// runs (~5MB of AllocEvents). Normal runs emit a handful of events, and even
// fuel-burning runs usually stay under this; the cap only exists so a truly
// pathological run cannot leave unbounded pointer-laden storage behind,
// which the GC would tax on every later run. Below the cap, retention wins:
// reallocating multi-megabyte event slices per run costs more than the scan.
const eventPoolCap = 1 << 16

// recycleEvents returns the slice emptied for reuse, dropping outsized
// storage a pathological run left behind.
func recycleEvents[T any](s []T) []T {
	if cap(s) > eventPoolCap {
		return nil
	}
	return s[:0]
}

// cframe is one slot-indexed activation frame. set tracks which slots hold a
// value, so reused storage never leaks stale values between runs or calls.
type cframe struct {
	vals []value
	set  []bool
}

// ensure sizes the frame for n slots, clearing definedness flags.
func (f *cframe) ensure(n int) {
	if cap(f.vals) < n {
		f.vals = make([]value, n)
		f.set = make([]bool, n)
		return
	}
	f.vals = f.vals[:n]
	f.set = f.set[:n]
	for i := range f.set {
		f.set[i] = false
	}
}

// NewMachine returns a Machine for the compiled program. The Compiled may be
// shared with any number of other Machines.
func NewMachine(c *Compiled) *Machine {
	return &Machine{code: c, blocks: make(map[uint64]*block)}
}

// Reset prepares the machine to execute the compiled program on input under
// opts, recycling all storage from the previous run. It invalidates the
// Outcome of the previous Run.
func (m *Machine) Reset(input []byte, opts Options) {
	if opts.Symbolic != nil {
		opts.TrackTaint = true
	}
	if opts.Fuel == 0 {
		opts.Fuel = DefaultFuel
	}
	m.input = input
	m.opts = opts
	m.meter = newMeter(opts)
	m.fp = -1
	m.globals.ensure(len(m.code.prog.Globals()))
	// Recycle a bounded number of blocks in allocation order (block IDs are
	// dense, so this is deterministic — map iteration order would recycle a
	// random subset and defeat the split-aware reuse in newBlock); a
	// pathological run that allocated thousands (a fuel-burning allocation
	// loop) must not leave the machine holding their materialized dense
	// prefixes forever — the GC scan cost of an unbounded pointer-laden pool
	// would tax every later run. The recycled blocks are queued in reverse,
	// so newBlock, which takes from the end, hands a repeated allocation
	// sequence the same block per allocation as last run, together with the
	// dense prefix and far-log capacity that allocation grew.
	recycled := len(m.freeBlocks)
	for id := uint64(1); id <= m.nextID && len(m.freeBlocks) < blockPoolCap; id++ {
		b, ok := m.blocks[id<<32]
		if !ok {
			continue
		}
		b.recycleFar()
		b.canary = false
		m.freeBlocks = append(m.freeBlocks, b)
	}
	slices.Reverse(m.freeBlocks[recycled:])
	if m.nextID > eventPoolCap {
		// A pathological run (fuel-burning allocation loop) grew the block
		// map's bucket array beyond what is worth keeping; start fresh
		// rather than let the GC scan it on every later run.
		m.blocks = make(map[uint64]*block)
	} else {
		clear(m.blocks)
	}
	m.canary = nil
	m.nextID = 0
	m.out = Outcome{
		Allocs:   recycleEvents(m.out.Allocs),
		MemErrs:  recycleEvents(m.out.MemErrs),
		Branches: recycleEvents(m.out.Branches),
		Warnings: recycleEvents(m.out.Warnings),
	}
	m.plain = !opts.TrackTaint
	m.ready = true
}

// Run executes the program prepared by the last Reset and returns the
// outcome. The returned Outcome (including its event slices) aliases
// machine storage and is valid only until the next Reset.
func (m *Machine) Run() *Outcome {
	if !m.ready {
		panic("interp: Machine.Run without a preceding Reset")
	}
	m.ready = false
	err := m.exec()
	m.out.Steps = m.used()
	m.out.classify(err)
	return &m.out
}

func (m *Machine) pushFrame(fn *cFunc) *cframe {
	m.fp++
	if m.fp == len(m.frames) {
		m.frames = append(m.frames, cframe{})
	}
	f := &m.frames[m.fp]
	f.ensure(fn.numSlots)
	return f
}

// newBlock returns a block for a fresh allocation of size cells. Its
// dense/far split is min(size+RedZone, denseLimit), or a recycled block's
// existing split if that is larger; its dense prefix materializes only as
// the run writes it (block.storeCell).
func (m *Machine) newBlock(site string, size uint64) *block {
	want := size + RedZone
	if want > denseLimit || want < size { // cap, and guard size overflow
		want = denseLimit
	}
	n := len(m.freeBlocks)
	if n == 0 {
		return &block{site: site, size: size, split: want, gen: 1}
	}
	// Take the last recycled block whose split already covers want, else
	// the last one. The pick reads the split, not the materialized length:
	// a run repeating the last run's allocation sequence then gets each
	// allocation's block from last time, with the dense prefix and far-log
	// capacity that allocation grew. Picking by materialized length would
	// hand the one grown block to the first allocation it fits and leave
	// the allocation that grew it to grow another.
	pick := n - 1
	for i := n - 1; i >= 0; i-- {
		if m.freeBlocks[i].split >= want {
			pick = i
			break
		}
	}
	b := m.freeBlocks[pick]
	m.freeBlocks = append(m.freeBlocks[:pick], m.freeBlocks[pick+1:]...)
	b.site, b.size, b.canary = site, size, false
	b.split = max(b.split, want)
	b.gen++
	if b.gen == 0 { // stamp wraparound: invalidate explicitly
		clear(b.stamp)
		b.gen = 1
	}
	return b
}

// readInput mirrors the tree-walker's input access, with the taint-label
// cache making repeated runs allocation-free.
func (m *Machine) readInput(idx value) value {
	i := int(idx.v)
	if i < 0 || i >= len(m.input) {
		// Reading past the end of input yields zero, like a short read.
		return value{v: 0, w: 8, tnt: idx.tnt}
	}
	out := value{v: uint64(m.input[i]), w: 8}
	if m.opts.TrackTaint {
		out.tnt = m.taintFor(i).Union(idx.tnt)
	}
	if i < len(m.opts.Symbolic) {
		out.sym = m.opts.Symbolic[i]
	}
	return out
}

func (m *Machine) taintFor(i int) *taint.Set {
	for len(m.inTaints) <= i {
		m.inTaints = append(m.inTaints, taint.Single(len(m.inTaints)))
	}
	return m.inTaints[i]
}
