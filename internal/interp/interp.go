// Package interp executes core-language programs (package lang) with the
// concrete+symbolic small-step semantics of the paper's Figures 4–6: every
// value is a pair of a concrete machine integer and a symbolic expression
// describing how it was computed from the input, the environment and memory
// map variables/cells to such pairs, and conditional branches append their
// symbolic condition to the branch sequence φ.
//
// The interpreter is also the repo's Valgrind substitute:
//
//   - Taint mode (§4.1): per-input-byte labels propagate through every
//     operation; allocation sites report the labels that reach their size
//     operand (the relevant input bytes).
//   - Symbolic-recording mode (§4.2): only operations on designated relevant
//     bytes build symbolic expressions, mirroring the paper's staging that
//     keeps recording tractable. The caller names each relevant byte by the
//     term it reads as (Options.Symbolic), so expressions come out over the
//     input fields the Hachoir substitute (package field) names.
//   - Memcheck (§4.6): allocations are bounds-tracked with a red zone.
//     Out-of-bounds accesses within the red zone are recorded as
//     InvalidRead/InvalidWrite and execution continues (clobbering allocator
//     canaries, which a later allocation detects as SIGABRT); accesses past
//     the red zone raise a simulated SIGSEGV.
package interp

import (
	"errors"
	"fmt"
	"math"

	"diode/internal/bv"
	"diode/internal/lang"
	"diode/internal/taint"
)

// RedZone is the number of cells past a block's size that are treated as
// adjacent heap memory: writable (with an InvalidWrite report) rather than
// immediately faulting.
const RedZone = 64

// DefaultFuel bounds the fuel units per run (see Options.Fuel). Every
// analysis and hunt run uses it. The guests retire about 15 AST nodes per
// unit, so the bound allows about 50M nodes of guest work, far above the
// 94k units the largest paper-sweep run at seeds 1–3 uses.
const DefaultFuel = 3_500_000

// Options configure a run.
type Options struct {
	// TrackTaint enables per-byte taint propagation (stage 1).
	TrackTaint bool
	// Symbolic, when non-nil, turns on symbolic recording and branch-trace
	// capture (stage 2) and implies taint tracking. Input byte i reads as
	// the term Symbolic[i] where the table has a non-nil entry, and
	// concretely elsewhere: the core names the relevant bytes only (the
	// paper's staging optimization), each by its field-level term
	// (field.Map.InputTerms).
	Symbolic []*bv.Term
	// Fuel bounds the run in units of control transfers: one unit per
	// conditional-branch decision (an If or While condition, charged once
	// its value is known and before its branch record) and one per call
	// (charged at entry, after the arguments are evaluated). Every loop
	// iteration and every recursion pays a unit, so the bound is total;
	// straight-line code costs nothing and is bounded by the program's size.
	// The unit that exhausts the budget ends the run with OutFuel and
	// Outcome.Steps == Fuel. 0 means DefaultFuel.
	Fuel int64
	// Cancel, when non-nil, aborts the run once the channel is closed. The
	// fuel charge polls it each time the units used reach a multiple of
	// cancelPollInterval and ends the run with OutCancelled. Any
	// long-running guest pays fuel every loop iteration, so cancellation is
	// observed promptly without taxing straight-line execution. This is how
	// context cancellation reaches mid-run guest executions (the core derives
	// it from ctx.Done()).
	Cancel <-chan struct{}
}

// cancelPollInterval is how many fuel units pass between polls of
// Options.Cancel. Polling a channel costs a few nanoseconds; rate-limiting
// keeps the charge cheap while still observing cancellation within
// microseconds of guest time.
const cancelPollInterval = 1024

// meter is a run's fuel account, the one definition of the fuel unit both
// engines charge through (see Options.Fuel).
type meter struct {
	fuel   int64 // units left
	budget int64 // Options.Fuel
	cancel <-chan struct{}
}

func newMeter(opts Options) meter {
	return meter{fuel: opts.Fuel, budget: opts.Fuel, cancel: opts.Cancel}
}

// tick charges one unit at a control transfer, reporting errFuel when it
// exhausts the budget and errCancel when a due poll finds Cancel closed.
func (mt *meter) tick() error {
	mt.fuel--
	if mt.fuel <= 0 {
		return errFuel
	}
	if mt.cancel != nil && (mt.budget-mt.fuel)%cancelPollInterval == 0 {
		select {
		case <-mt.cancel:
			return errCancel
		default:
		}
	}
	return nil
}

// used is the units charged so far: Outcome.Steps.
func (mt *meter) used() int64 { return mt.budget - mt.fuel }

// value is the ⟨v, w⟩ pair of the semantics: a concrete machine integer with
// width, its symbolic expression (nil when the value does not depend on
// symbolic input bytes), and its taint labels. Field order packs the struct
// into 32 bytes — values are copied on every expression step.
type value struct {
	v   uint64
	sym *bv.Term
	tnt *taint.Set
	w   uint8
	// wrapped records that some arithmetic step producing this value (or an
	// operand of it) wrapped around the modulus — runtime overflow tracking
	// consistent with bv.OverflowCond (add, sub, mul, shl).
	wrapped bool
}

func (x value) term() *bv.Term {
	if x.sym != nil {
		return x.sym
	}
	return bv.Const(x.w, x.v)
}

// block is an allocated memory region. Cells are stored sparsely so that
// huge (overflowed) allocation sizes cost nothing.
type block struct {
	site   string
	size   uint64
	cells  map[uint64]value // every cell (tree-walker); cells at or past split (Machine)
	canary bool             // true once an out-of-bounds write clobbered the red zone

	// Machine-only cell storage (the tree-walking interpreter leaves all of
	// this zero and uses the cells map alone). Offsets below split are dense
	// cells; the dense prefix holds the first len(dense) of them and is
	// materialized by writes: it starts empty, and a store at or past its
	// length grows it by doubling, up to split (growDense). A dense cell the
	// prefix does not reach yet, or whose generation stamp is not the
	// current run's, reads as the zero-initialized cell, so recycling the
	// prefix costs one generation bump instead of clearing it. Offsets at
	// or past split go through far's write logs into cells, which recycling
	// clears.
	split uint64
	dense []value
	stamp []uint32
	far   farLogs
	gen   uint32
}

const (
	// denseLimit bounds the dense-cell prefix per block.
	denseLimit = 4096
	// minDense is the dense prefix a block's first dense write materializes.
	minDense = 16
	// blockPoolCap bounds how many blocks a Machine recycles across runs.
	blockPoolCap = 64
)

// storeCell writes a cell through the Machine's dense/far storage, first
// growing the dense prefix over a dense offset it does not reach yet. plain
// is true when the run tracks neither taint nor symbolic state, so the value
// is pointer-free and can go to the GC-invisible log.
func (b *block) storeCell(off uint64, v value, plain bool) {
	if off < b.split {
		if off >= uint64(len(b.dense)) {
			b.growDense(off)
		}
		b.dense[off] = v
		b.stamp[off] = b.gen
		return
	}
	b.storeFar(off, v, plain)
}

// growDense materializes the dense prefix through offset off, which lies
// below split: the length doubles from at least minDense until it covers
// off, and stops at split. The copied stamps keep every cell's state; the
// new entries are zero, which no run's generation equals.
func (b *block) growDense(off uint64) {
	n := max(2*uint64(len(b.dense)), minDense)
	for n <= off {
		n *= 2
	}
	n = min(n, b.split)
	dense, stamp := make([]value, n), make([]uint32, n)
	copy(dense, b.dense)
	copy(stamp, b.stamp)
	b.dense, b.stamp = dense, stamp
}

// loadCell reads a cell through the Machine's dense/far storage; untouched
// cells, dense ones the prefix does not reach included, read as the
// zero-initialized value (Figure 5).
func (b *block) loadCell(off uint64) value {
	if off < uint64(len(b.dense)) {
		if b.stamp[off] == b.gen {
			return b.dense[off]
		}
		return value{v: 0, w: 8}
	}
	if off >= b.split {
		if v, ok := b.loadFar(off); ok {
			return v
		}
	}
	return value{v: 0, w: 8}
}

// farLogs holds a Machine block's writes beyond the dense prefix. Guests
// overwhelmingly *write* far cells (memset loops, end-of-buffer pokes over
// huge allocations) and read them rarely, so writes append to a log — no
// hashing — and the log is folded into the block's cells map only if the
// run ever loads a far cell. Later entries overwrite earlier ones during the
// fold, preserving store order. Plain-mode runs (no taint, no symbolic
// state) append to a pointer-free log the GC never scans, and a write that
// continues the last entry's arithmetic run of one value extends that entry
// instead, so a memset loop over far cells logs one entry; a run is entirely
// in one mode, so at most one log is populated per run.
type farLogs struct {
	log      []farWrite      // taint/symbolic-mode writes (pointer-carrying)
	plainLog []farPlainWrite // plain-mode writes (GC-invisible)
	indexed  bool            // this run has folded its logs and writes to cells directly
}

type farWrite struct {
	off uint64
	val value
}

// farPlainWrite is a run of n plain writes of one value, in order: the
// k-th wrote the cell at off + k*step, wrapping at 2^64. A lone write
// (n = 1) reads only off; the second write of a run sets step.
type farPlainWrite struct {
	off, step uint64
	v         uint64
	n         uint32
	w         uint8
	wrapped   bool
}

func (b *block) storeFar(off uint64, v value, plain bool) {
	f := &b.far
	if f.indexed {
		b.cells[off] = v
		return
	}
	if plain {
		if !f.extend(off, &v) {
			f.plainLog = append(f.plainLog, farPlainWrite{off: off, v: v.v, n: 1, w: v.w, wrapped: v.wrapped})
		}
		return
	}
	f.log = append(f.log, farWrite{off: off, val: v})
}

// extend logs a plain write of *v at off by extending the plain log's last
// entry, and reports whether that entry's run takes it: the value must be
// the entry's, and off the next offset of its run. A folded log is empty,
// so extend never takes a write that belongs in cells.
func (f *farLogs) extend(off uint64, v *value) bool {
	k := len(f.plainLog) - 1
	if k < 0 {
		return false
	}
	e := &f.plainLog[k]
	if e.n == 1 {
		e.step = off - e.off // a lone write's step is free: this write fixes it
	}
	if off != e.off+uint64(e.n)*e.step || e.v != v.v || e.w != v.w || e.wrapped != v.wrapped || e.n == math.MaxUint32 {
		return false
	}
	e.n++
	return true
}

func (b *block) loadFar(off uint64) (value, bool) {
	if f := &b.far; !f.indexed {
		f.indexed = true
		if b.cells == nil {
			b.cells = make(map[uint64]value)
		}
		for i := range f.plainLog {
			e := &f.plainLog[i]
			v, off := value{v: e.v, w: e.w, wrapped: e.wrapped}, e.off
			for k := uint32(0); k < e.n; k++ {
				b.cells[off] = v
				off += e.step
			}
		}
		f.plainLog = f.plainLog[:0]
		for i := range f.log {
			b.cells[f.log[i].off] = f.log[i].val
		}
		f.log = f.log[:0]
	}
	v, ok := b.cells[off]
	return v, ok
}

// recycleFar empties the far storage for the next run, dropping outsized
// storage.
func (b *block) recycleFar() {
	f := &b.far
	f.indexed = false
	if cap(f.log) > eventPoolCap {
		f.log = nil
	} else {
		f.log = f.log[:0]
	}
	if cap(f.plainLog) > 4*eventPoolCap {
		f.plainLog = nil
	} else {
		f.plainLog = f.plainLog[:0]
	}
	if len(b.cells) > eventPoolCap {
		b.cells = nil
	} else {
		clear(b.cells)
	}
}

type frame struct {
	vars map[string]value
}

// machine is one execution in progress.
type machine struct {
	meter
	prog    *lang.Program
	input   []byte
	opts    Options
	frames  []frame
	blocks  map[uint64]*block
	canary  *block           // first block whose red zone was clobbered
	globals map[string]value // lang.IsGlobal variables, program-wide
	nextID  uint64
	out     Outcome

	// control state
	returning bool
	retVal    value
	hasRet    bool
}

// Control-flow sentinels distinguished from real errors.
var (
	errAbort  = errors.New("abort")
	errSegv   = errors.New("segv")
	errAbrt   = errors.New("abrt")
	errFuel   = errors.New("fuel")
	errCancel = errors.New("cancelled")
)

// Run executes prog on input under opts and returns the observed outcome.
// The program must have been finalized.
//
// Run is a convenience wrapper over the compiled execution layer: it compiles
// prog and runs it on a fresh Machine. Callers that execute the same program
// many times (the core Hunter, the harness sweeps) should Compile once and
// reuse a Machine via Reset/Run, which amortizes compilation and storage
// allocation across runs.
func Run(prog *lang.Program, input []byte, opts Options) *Outcome {
	m := NewMachine(Compile(prog))
	m.Reset(input, opts)
	return m.Run()
}

// RunTree executes prog on the original tree-walking interpreter: a fresh
// machine per call, environments as string-keyed maps, every variable
// re-resolved by name at each step. It is retained only as the compiled
// layer's oracle: TestCompiledParity* and the fuzz targets pin byte-identical
// Outcomes against it, and benchmarks and perfbench replay inputs on it.
// Production code runs on Run or a reused Machine.
func RunTree(prog *lang.Program, input []byte, opts Options) *Outcome {
	if opts.Symbolic != nil {
		opts.TrackTaint = true
	}
	if opts.Fuel == 0 {
		opts.Fuel = DefaultFuel
	}
	m := &machine{
		prog:    prog,
		input:   input,
		opts:    opts,
		meter:   newMeter(opts),
		blocks:  make(map[uint64]*block),
		globals: make(map[string]value),
	}
	main := prog.Funcs["main"]
	m.frames = append(m.frames, frame{vars: make(map[string]value)})
	err := m.execBlock(main.Body)
	m.out.Steps = m.used()
	m.out.classify(err)
	return &m.out
}

func (m *machine) top() *frame { return &m.frames[len(m.frames)-1] }

// --- statement execution ---

func (m *machine) execBlock(b lang.Block) error {
	for _, s := range b {
		if err := m.execStmt(s); err != nil {
			return err
		}
		if m.returning {
			return nil
		}
	}
	return nil
}

func (m *machine) execStmt(s lang.Stmt) error {
	switch st := s.(type) {
	case lang.Assign:
		v, err := m.eval(st.E)
		if err != nil {
			return err
		}
		m.setVar(st.Var, v)
		return nil
	case lang.Alloc:
		return m.execAlloc(st)
	case lang.Store:
		return m.execStore(st)
	case lang.If:
		taken, err := m.evalCondBranch(st.Label, st.Cond)
		if err != nil {
			return err
		}
		if taken {
			return m.execBlock(st.Then)
		}
		return m.execBlock(st.Else)
	case lang.While:
		for {
			taken, err := m.evalCondBranch(st.Label, st.Cond)
			if err != nil {
				return err
			}
			if !taken {
				return nil
			}
			if err := m.execBlock(st.Body); err != nil {
				return err
			}
			if m.returning {
				return nil
			}
		}
	case lang.ExprStmt:
		_, err := m.eval(st.E)
		return err
	case lang.Return:
		if st.E != nil {
			v, err := m.eval(st.E)
			if err != nil {
				return err
			}
			m.retVal = v
			m.hasRet = true
		} else {
			m.hasRet = false
		}
		m.returning = true
		return nil
	case lang.AbortStmt:
		m.out.AbortMsg = st.Msg
		return errAbort
	case lang.WarnStmt:
		m.out.Warnings = append(m.out.Warnings, st.Msg)
		return nil
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

func (m *machine) execAlloc(st lang.Alloc) error {
	size, err := m.eval(st.Size)
	if err != nil {
		return err
	}
	// Heap-corruption check: glibc-style abort when a previously clobbered
	// red zone (allocator metadata) is observed by the allocator. The error
	// is attributed to the *first* clobbered block — deterministically, and
	// identically to the compiled Machine — rather than to whichever block a
	// map iteration happens to yield.
	if b := m.canary; b != nil {
		m.out.MemErrs = append(m.out.MemErrs, MemError{
			Kind: InvalidWrite, Site: b.site, Offset: b.size, Size: b.size,
		})
		return errAbrt
	}
	m.nextID++
	base := m.nextID << 32
	m.blocks[base] = &block{site: st.Site, size: size.v, cells: make(map[uint64]value)}
	m.out.Allocs = append(m.out.Allocs, AllocEvent{
		Site:       st.Site,
		Seq:        len(m.out.Allocs),
		Size:       size.v,
		Width:      size.w,
		Sym:        size.sym,
		Taint:      size.tnt,
		Wrapped:    size.wrapped,
		BranchMark: len(m.out.Branches),
	})
	m.setVar(st.Var, value{v: base, w: 64})
	return nil
}

// setVar assigns a variable; lang.IsGlobal names are globals shared by
// every procedure (the guest applications' file-scope state).
func (m *machine) setVar(name string, v value) {
	if lang.IsGlobal(name) {
		m.globals[name] = v
		return
	}
	m.top().vars[name] = v
}

func (m *machine) getVar(name string) (value, bool) {
	if lang.IsGlobal(name) {
		v, ok := m.globals[name]
		return v, ok
	}
	v, ok := m.top().vars[name]
	return v, ok
}

func (m *machine) execStore(st lang.Store) error {
	ptr, err := m.eval(st.Ptr)
	if err != nil {
		return err
	}
	off, err := m.eval(st.Off)
	if err != nil {
		return err
	}
	val, err := m.eval(st.Val)
	if err != nil {
		return err
	}
	b, ok := m.blocks[ptr.v]
	if !ok {
		return fmt.Errorf("interp: store through non-pointer %#x", ptr.v)
	}
	if off.v >= b.size {
		if off.v >= b.size+RedZone {
			m.out.MemErrs = append(m.out.MemErrs, MemError{
				Kind: InvalidWrite, Site: b.site, Offset: off.v, Size: b.size,
			})
			return errSegv
		}
		m.out.MemErrs = append(m.out.MemErrs, MemError{
			Kind: InvalidWrite, Site: b.site, Offset: off.v, Size: b.size,
		})
		b.canary = true // allocator metadata clobbered
		if m.canary == nil {
			m.canary = b
		}
	}
	b.cells[off.v] = val
	return nil
}

// --- expression evaluation ---

func (m *machine) eval(e lang.Expr) (value, error) {
	switch x := e.(type) {
	case lang.Lit:
		return value{v: x.V & bv.Mask(x.W), w: x.W}, nil
	case lang.VarRef:
		v, ok := m.getVar(x.Name)
		if !ok {
			return value{}, fmt.Errorf("interp: undefined variable %q", x.Name)
		}
		return v, nil
	case lang.Bin:
		a, err := m.eval(x.A)
		if err != nil {
			return value{}, err
		}
		b, err := m.eval(x.B)
		if err != nil {
			return value{}, err
		}
		return binop(x.Op, a, b, m.opts.TrackTaint)
	case lang.Un:
		a, err := m.eval(x.A)
		if err != nil {
			return value{}, err
		}
		return unop(x.Neg, a), nil
	case lang.Cvt:
		a, err := m.eval(x.A)
		if err != nil {
			return value{}, err
		}
		return convert(x.W, x.Signed, a), nil
	case lang.InByte:
		idx, err := m.eval(x.Idx)
		if err != nil {
			return value{}, err
		}
		return m.readInput(idx)
	case lang.InLen:
		return value{v: uint64(len(m.input)), w: 32}, nil
	case lang.LoadExpr:
		return m.evalLoad(x)
	case lang.CallExpr:
		return m.call(x)
	}
	return value{}, fmt.Errorf("interp: unknown expression %T", e)
}

func (m *machine) readInput(idx value) (value, error) {
	i := int(idx.v)
	if i < 0 || i >= len(m.input) {
		// Reading past the end of input yields zero, like a short read.
		return value{v: 0, w: 8, tnt: idx.tnt}, nil
	}
	out := value{v: uint64(m.input[i]), w: 8}
	if m.opts.TrackTaint {
		out.tnt = taint.Single(i).Union(idx.tnt)
	}
	if i < len(m.opts.Symbolic) {
		out.sym = m.opts.Symbolic[i]
	}
	return out, nil
}

func (m *machine) evalLoad(x lang.LoadExpr) (value, error) {
	ptr, err := m.eval(x.Ptr)
	if err != nil {
		return value{}, err
	}
	off, err := m.eval(x.Off)
	if err != nil {
		return value{}, err
	}
	b, ok := m.blocks[ptr.v]
	if !ok {
		return value{}, fmt.Errorf("interp: load through non-pointer %#x", ptr.v)
	}
	if off.v >= b.size {
		m.out.MemErrs = append(m.out.MemErrs, MemError{
			Kind: InvalidRead, Site: b.site, Offset: off.v, Size: b.size,
		})
		if off.v >= b.size+RedZone {
			return value{}, errSegv
		}
	}
	if v, ok := b.cells[off.v]; ok {
		return v, nil
	}
	return value{v: 0, w: 8}, nil // alloc zero-initializes (Figure 5)
}

func (m *machine) call(x lang.CallExpr) (value, error) {
	callee := m.prog.Funcs[x.Fn]
	f := frame{vars: make(map[string]value, len(callee.Params))}
	for i, p := range callee.Params {
		av, err := m.eval(x.Args[i])
		if err != nil {
			return value{}, err
		}
		f.vars[p] = av
	}
	if err := m.tick(); err != nil {
		return value{}, err
	}
	m.frames = append(m.frames, f)
	err := m.execBlock(callee.Body)
	m.frames = m.frames[:len(m.frames)-1]
	ret := value{w: 32}
	if m.hasRet {
		ret = m.retVal
	}
	m.returning = false
	m.hasRet = false
	if err != nil {
		return value{}, err
	}
	return ret, nil
}

// binop, unop and convert implement the operator semantics shared by the
// tree-walking machine and the compiled Machine; trackTaint selects whether
// result taint is computed.
func binop(op lang.BinOp, a, b value, trackTaint bool) (value, error) {
	if a.w != b.w {
		return value{}, fmt.Errorf("interp: width mismatch in %s: %d vs %d bits", op, a.w, b.w)
	}
	return binopVal(op, &a, &b, trackTaint)
}

// binopVal is binop after the width check; the compiled Machine calls it
// directly (panicking on its own width mismatch) so the hot path carries no
// error plumbing for the impossible cases. Operands are passed by pointer to
// keep the hot call free of 32-byte struct copies; they are not modified.
func binopVal(op lang.BinOp, a, b *value, trackTaint bool) (value, error) {
	w := a.w
	mask := bv.Mask(w)
	var v uint64
	wrapped := a.wrapped || b.wrapped
	switch op {
	case lang.OpAdd:
		v = (a.v + b.v) & mask
		wrapped = wrapped || v < a.v // carry out
	case lang.OpSub:
		v = (a.v - b.v) & mask
		wrapped = wrapped || b.v > a.v // borrow
	case lang.OpMul:
		v = (a.v * b.v) & mask
		wrapped = wrapped || mulWraps(a.v, b.v, w)
	case lang.OpUDiv:
		if b.v == 0 {
			v = mask
		} else {
			v = a.v / b.v
		}
	case lang.OpURem:
		if b.v == 0 {
			v = a.v
		} else {
			v = a.v % b.v
		}
	case lang.OpAnd:
		v = a.v & b.v
	case lang.OpOr:
		v = a.v | b.v
	case lang.OpXor:
		v = a.v ^ b.v
	case lang.OpShl:
		if b.v >= uint64(w) {
			v = 0
			wrapped = wrapped || a.v != 0
		} else {
			v = (a.v << b.v) & mask
			wrapped = wrapped || a.v>>(uint64(w)-b.v) != 0 && b.v != 0
		}
	case lang.OpLShr:
		if b.v >= uint64(w) {
			v = 0
		} else {
			v = a.v >> b.v
		}
	case lang.OpAShr:
		s := b.v
		if s >= uint64(w) {
			s = uint64(w) - 1
		}
		v = uint64(int64(signExtend(a.v, w))>>s) & mask
	default:
		return value{}, fmt.Errorf("interp: unknown binop %d", op)
	}
	out := value{v: v, w: w, wrapped: wrapped}
	if trackTaint {
		out.tnt = a.tnt.Union(b.tnt)
	}
	// The INPVAR rules of Figure 4: a symbolic expression is built whenever
	// either operand is symbolic; concrete operands appear as constants.
	if a.sym != nil || b.sym != nil {
		out.sym = symBinop(op, a, b)
	}
	return out, nil
}

func symBinop(op lang.BinOp, a, b *value) *bv.Term {
	x, y := a.term(), b.term()
	switch op {
	case lang.OpAdd:
		return bv.Add(x, y)
	case lang.OpSub:
		return bv.Sub(x, y)
	case lang.OpMul:
		return bv.Mul(x, y)
	case lang.OpUDiv:
		return bv.UDiv(x, y)
	case lang.OpURem:
		return bv.URem(x, y)
	case lang.OpAnd:
		return bv.And(x, y)
	case lang.OpOr:
		return bv.Or(x, y)
	case lang.OpXor:
		return bv.Xor(x, y)
	case lang.OpShl:
		return bv.Shl(x, y)
	case lang.OpLShr:
		return bv.LShr(x, y)
	default:
		return bv.AShr(x, y)
	}
}

// mulWraps reports whether the ideal product of x and y exceeds w bits.
func mulWraps(x, y uint64, w uint8) bool {
	if x == 0 || y == 0 {
		return false
	}
	if w <= 32 {
		return x*y > bv.Mask(w)
	}
	return x > bv.Mask(w)/y
}

func unop(neg bool, a value) value {
	out := value{w: a.w, tnt: a.tnt, wrapped: a.wrapped}
	if neg {
		out.v = (-a.v) & bv.Mask(a.w)
	} else {
		out.v = (^a.v) & bv.Mask(a.w)
	}
	if a.sym != nil {
		if neg {
			out.sym = bv.Neg(a.sym)
		} else {
			out.sym = bv.Not(a.sym)
		}
	}
	return out
}

func convert(w uint8, signed bool, a value) value {
	out := value{w: w, tnt: a.tnt, wrapped: a.wrapped}
	switch {
	case w == a.w:
		return a
	case w > a.w:
		if signed {
			out.v = signExtend(a.v, a.w) & bv.Mask(w)
		} else {
			out.v = a.v
		}
		if a.sym != nil {
			if signed {
				out.sym = bv.SExt(w, a.sym)
			} else {
				out.sym = bv.ZExt(w, a.sym)
			}
		}
	default: // truncation
		out.v = a.v & bv.Mask(w)
		if a.sym != nil {
			out.sym = bv.Trunc(w, a.sym)
		}
	}
	return out
}

// --- boolean evaluation and branch recording ---

// evalCondBranch evaluates a branch condition, charges the decision's fuel
// unit, appends to φ when the condition is input-dependent, and returns the
// direction taken.
func (m *machine) evalCondBranch(label string, c lang.BoolExpr) (bool, error) {
	taken, sym, _, err := m.evalBool(c)
	if err != nil {
		return false, err
	}
	if err := m.tick(); err != nil {
		return false, err
	}
	if m.opts.Symbolic != nil && sym != nil {
		cond := sym
		if !taken {
			cond = bv.NotB(cond)
		}
		m.out.Branches = append(m.out.Branches, BranchRecord{
			Label: label,
			Taken: taken,
			Cond:  cond,
		})
	}
	return taken, nil
}

// evalBool returns the concrete truth value, the symbolic condition (nil when
// input-independent) and the taint of the condition.
func (m *machine) evalBool(c lang.BoolExpr) (bool, *bv.Bool, *taint.Set, error) {
	switch x := c.(type) {
	case lang.BoolLit:
		return x.V, nil, nil, nil
	case lang.Cmp:
		a, err := m.eval(x.A)
		if err != nil {
			return false, nil, nil, err
		}
		b, err := m.eval(x.B)
		if err != nil {
			return false, nil, nil, err
		}
		if a.w != b.w {
			return false, nil, nil, fmt.Errorf("interp: width mismatch in %s: %d vs %d bits", x.Op, a.w, b.w)
		}
		cv := concreteCmp(x.Op, a, b)
		var sym *bv.Bool
		if a.sym != nil || b.sym != nil {
			sym = symCmp(x.Op, a.term(), b.term())
		}
		var tn *taint.Set
		if m.opts.TrackTaint {
			tn = a.tnt.Union(b.tnt)
		}
		return cv, sym, tn, nil
	case lang.NotE:
		v, sym, tn, err := m.evalBool(x.A)
		if err != nil {
			return false, nil, nil, err
		}
		if sym != nil {
			sym = bv.NotB(sym)
		}
		return !v, sym, tn, nil
	case lang.AndE:
		av, asym, at, err := m.evalBool(x.A)
		if err != nil {
			return false, nil, nil, err
		}
		bvv, bsym, bt, err := m.evalBool(x.B)
		if err != nil {
			return false, nil, nil, err
		}
		sym := combineBool(av, asym, bvv, bsym, true)
		return av && bvv, sym, at.Union(bt), nil
	case lang.OrE:
		av, asym, at, err := m.evalBool(x.A)
		if err != nil {
			return false, nil, nil, err
		}
		bvv, bsym, bt, err := m.evalBool(x.B)
		if err != nil {
			return false, nil, nil, err
		}
		sym := combineBool(av, asym, bvv, bsym, false)
		return av || bvv, sym, at.Union(bt), nil
	}
	return false, nil, nil, fmt.Errorf("interp: unknown boolean expression %T", c)
}

// combineBool builds the symbolic form of a∧b or a∨b where either side may be
// concrete (nil symbolic).
func combineBool(av bool, asym *bv.Bool, bvv bool, bsym *bv.Bool, isAnd bool) *bv.Bool {
	if asym == nil && bsym == nil {
		return nil
	}
	a := asym
	if a == nil {
		a = bv.BoolConst(av)
	}
	b := bsym
	if b == nil {
		b = bv.BoolConst(bvv)
	}
	if isAnd {
		return bv.AndB(a, b)
	}
	return bv.OrB(a, b)
}

func concreteCmp(op lang.CmpOp, a, b value) bool {
	switch op {
	case lang.CmpEq:
		return a.v == b.v
	case lang.CmpNe:
		return a.v != b.v
	case lang.CmpUlt:
		return a.v < b.v
	case lang.CmpUle:
		return a.v <= b.v
	case lang.CmpUgt:
		return a.v > b.v
	case lang.CmpUge:
		return a.v >= b.v
	case lang.CmpSlt:
		return int64(signExtend(a.v, a.w)) < int64(signExtend(b.v, b.w))
	case lang.CmpSle:
		return int64(signExtend(a.v, a.w)) <= int64(signExtend(b.v, b.w))
	case lang.CmpSgt:
		return int64(signExtend(a.v, a.w)) > int64(signExtend(b.v, b.w))
	default:
		return int64(signExtend(a.v, a.w)) >= int64(signExtend(b.v, b.w))
	}
}

func symCmp(op lang.CmpOp, x, y *bv.Term) *bv.Bool {
	switch op {
	case lang.CmpEq:
		return bv.Eq(x, y)
	case lang.CmpNe:
		return bv.Ne(x, y)
	case lang.CmpUlt:
		return bv.Ult(x, y)
	case lang.CmpUle:
		return bv.Ule(x, y)
	case lang.CmpUgt:
		return bv.Ugt(x, y)
	case lang.CmpUge:
		return bv.Uge(x, y)
	case lang.CmpSlt:
		return bv.Slt(x, y)
	case lang.CmpSle:
		return bv.Sle(x, y)
	case lang.CmpSgt:
		return bv.Sgt(x, y)
	default:
		return bv.Sge(x, y)
	}
}

func signExtend(v uint64, w uint8) uint64 {
	if w == 64 {
		return v
	}
	sign := uint64(1) << (w - 1)
	v &= bv.Mask(w)
	if v&sign != 0 {
		return v | ^bv.Mask(w)
	}
	return v
}
