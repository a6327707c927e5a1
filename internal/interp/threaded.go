package interp

import (
	"fmt"

	"diode/internal/bv"
	"diode/internal/lang"
)

// This file is the direct-threaded execution core: the flat instruction
// format Compile lowers to (see compile.go) and the single dispatch loop that
// executes it. There are no per-node interface calls and no panic-based
// control flow — every exceptional exit travels as an ordinary error return
// out of exec, and the hot path allocates nothing.
//
// Fuel parity with the tree-walker is byte-exact and rests on one rule: the
// tree charges each AST node's step in pre-order (parent before children), so
// the lowerer keeps a running "pending" count of charged-but-not-yet-attached
// steps and attaches the whole run to the *first* instruction emitted for the
// subtree. Every instruction performs its observable effects (variable-read
// errors, memory events, branch records) strictly after its charges, so
// charging the lump in one subtraction is indistinguishable from the tree's
// step-by-step accounting: if fuel runs out inside the lump, the tree would
// have exhausted inside the same effect-free run, and both report
// Steps == Fuel. Fused instructions that interleave reads between charges
// (opAssignBin and friends, at opColdBase and above) manage their own fuel:
// on the hot path they charge the full lump and refund the trailing charges
// the tree never consumed when an early read errors; near exhaustion they
// fall back to exact segment-by-segment charging (chargeExact).

// Instruction opcodes. Ops below opColdBase have a single trailing effect (or
// none), so the dispatch loop's shared top-of-loop handler charges in.charge
// before dispatch; ops at/after opColdBase interleave reads between charges
// and do their own fuel accounting.
const (
	opCharge uint8 = iota // charge-only (the While statement's own step)
	opJmp
	opPushLit
	opPushRef
	opPushInLen
	opBinPop
	opUnPop
	opCvtPop
	opInBytePop
	opLoadPop
	opStorePop
	opAllocPop
	opPopRef
	opPopDrop
	opCall
	opRetPop
	opRetVoid
	opPushBool
	opCmpPop
	opNotPop
	opAndPop
	opOrPop
	opBranch // pop condition; record branch event; jump to dst when false
	opAbortStmt
	opWarnStmt
	opAssignRef    // dst = leaf
	opAssignCvt    // dst = ZX/SX(w, leaf)
	opAssignInByte // dst = In(leaf)
)

const (
	opAssignBin    uint8 = opAssignInByte + 1 + iota // dst = leaf <op> leaf
	opPushBin                                        // push leaf <op> leaf (add/cmp-immediate shapes)
	opJcc                                            // fused Cmp(leaf, leaf) + branch loop head
	opAssignLoad                                     // dst = Load(leaf, leaf)
	opStoreRef                                       // Store(leaf, leaf | ZX(64, leaf), leaf)
	opLoadOpStore                                    // Store(p, o, Load(p2, o2) <op> leaf)
	opPushLoadZX                                     // push ZX(w, In(leaf + leaf))
	opAssignLoadZX                                   // dst = ZX(w, In(leaf + leaf))
	opStoreLoop                                      // bulk memset-style loop body (descriptor in imm)
)

// opColdBase splits the opcode space: everything below has at most a single
// trailing effect and is charged by the dispatch loop's shared handler;
// everything at or above manages its own fuel accounting.
const opColdBase = opAssignBin

// Operand reference kinds (two bits each in instr.flg).
const (
	refLocal  uint8 = 0 // index into the active frame's slots
	refGlobal uint8 = 1 // index into the program-wide global slots
	refLit    uint8 = 2 // index into the function's pre-masked literal table
)

// instr.flg bit layout: bits 0-1 kindA, bits 2-3 kindB, bits 4-5 kindC (the
// destination-slot kind for assigns, the value-ref kind for stores), bit 6 a
// ZX(64, ·) offset marker (opStoreRef), bit 7 a generic boolean flag (signed
// conversion, negation vs bitwise-not, boolean literal value).
const (
	flgZX  uint8 = 1 << 6
	flgBit uint8 = 1 << 7
)

// instr is one direct-threaded instruction: 32 bytes, pointer-free.
type instr struct {
	op     uint8
	sub    uint8  // lang.BinOp / lang.CmpOp subcode
	w      uint8  // width operand (conversions, literals)
	flg    uint8  // ref kinds + flags, see above
	charge uint16 // fuel steps attached to this instruction
	aux    uint16 // index into cFunc.strs (labels, sites, messages); arg count for opCall
	a, b   int32  // operand refs; function index for opCall
	dst    int32  // destination slot ref or branch target
	imm    uint64 // literal value (opPushLit), loop-descriptor index (opStoreLoop), packed refs (opLoadOpStore)
}

// bval is a bool-stack entry: the concrete truth value plus the symbolic
// condition (nil when input-independent). The tree-walker also threads a
// taint set through boolean evaluation, but every consumer discards it, so
// the flat form drops it.
type bval struct {
	v   bool
	sym *bv.Bool
}

// callSite is one saved return location on the explicit call stack.
type callSite struct {
	fn *cFunc
	pc int32
}

func widthErr(op fmt.Stringer, aw, bw uint8) error {
	return fmt.Errorf("interp: width mismatch in %s: %d vs %d bits", op, aw, bw)
}

// refVal resolves an operand reference against the active frame (g is the
// machine's global frame). ok=false means undefined variable; the caller
// reports it via undefRef. This is the dispatch loop's only operand access,
// kept small enough to inline — the undefined-variable error is the sole
// observable effect and is raised by the caller after its charges.
func refVal(fn *cFunc, g, fr *cframe, kind uint8, idx int32) (value, bool) {
	if kind == refLit {
		return fn.lits[idx], true
	}
	if kind == refGlobal {
		fr = g
	}
	if !fr.set[idx] {
		return value{}, false
	}
	return fr.vals[idx], true
}

// undefRef builds the undefined-variable error for a failed refVal. Out of
// line so refVal stays inlinable.
//
//go:noinline
func (m *Machine) undefRef(fn *cFunc, kind uint8, idx int32) error {
	name := fn.slotNames[idx]
	if kind == refGlobal {
		name = m.code.globalNames[idx]
	}
	return fmt.Errorf("interp: undefined variable %q", name)
}

func (m *Machine) setRef(fr *cframe, kind uint8, idx int32, v value) {
	if kind == refGlobal {
		m.globals.vals[idx] = v
		m.globals.set[idx] = true
		return
	}
	fr.vals[idx] = v
	fr.set[idx] = true
}

// chargeExact charges n consecutive effect-free steps, reporting false on
// fuel exhaustion (at which point fuel is pinned to 0, so Steps == Fuel
// exactly as in the tree-walker).
func (m *Machine) chargeExact(n int64) bool {
	m.fuel -= n
	if m.fuel <= 0 {
		m.fuel = 0
		return false
	}
	return true
}

// pollCancel mirrors the tree-walker's rate-limited cancellation poll.
func (m *Machine) pollCancel() error {
	if m.cancelPoll--; m.cancelPoll <= 0 {
		m.cancelPoll = cancelPollInterval
		select {
		case <-m.opts.Cancel:
			return errCancel
		default:
		}
	}
	return nil
}

// loadMem performs the Load effect sequence (event, segv, cell read) shared
// by opLoadPop, opAssignLoad and opLoadOpStore.
func (m *Machine) loadMem(ptr, off uint64) (value, error) {
	b, ok := m.blocks[ptr]
	if !ok {
		return value{}, fmt.Errorf("interp: load through non-pointer %#x", ptr)
	}
	if off >= b.size {
		m.out.MemErrs = append(m.out.MemErrs, MemError{
			Kind: InvalidRead, Site: b.site, Offset: off, Size: b.size,
		})
		if off >= b.size+RedZone {
			return value{}, errSegv
		}
	}
	return b.loadCell(off), nil
}

// storeMem performs the Store effect sequence (event, canary, segv, cell
// write) shared by opStorePop, opStoreRef and opLoadOpStore.
func (m *Machine) storeMem(ptr, off uint64, val value) error {
	b, ok := m.blocks[ptr]
	if !ok {
		return fmt.Errorf("interp: store through non-pointer %#x", ptr)
	}
	if off >= b.size {
		if off >= b.size+RedZone {
			m.out.MemErrs = append(m.out.MemErrs, MemError{
				Kind: InvalidWrite, Site: b.site, Offset: off, Size: b.size,
			})
			return errSegv
		}
		m.out.MemErrs = append(m.out.MemErrs, MemError{
			Kind: InvalidWrite, Site: b.site, Offset: off, Size: b.size,
		})
		b.canary = true // allocator metadata clobbered
		if m.canary == nil {
			m.canary = b
		}
	}
	b.storeCell(off, val, m.plain)
	return nil
}

// exec runs the prepared program through the direct-threaded dispatch loop.
func (m *Machine) exec() error {
	fn := m.code.main
	m.pushFrame(fn)
	fr := &m.frames[m.fp]
	g := &m.globals
	code := fn.code
	stack := m.stack
	if len(stack) < fn.maxStack {
		stack = make([]value, fn.maxStack+64)
		m.stack = stack
	}
	bstack := m.bstack
	if len(bstack) < fn.maxBools {
		bstack = make([]bval, fn.maxBools+16)
		m.bstack = bstack
	}
	m.calls = m.calls[:0]
	sp, bsp := 0, 0
	var pc int32
	for {
		in := &code[pc]
		if in.charge != 0 && in.op < opColdBase {
			m.fuel -= int64(in.charge)
			if m.fuel <= 0 {
				m.fuel = 0
				return errFuel
			}
		}
		switch in.op {
		case opCharge:
			// charge handled above

		case opJmp:
			pc = in.dst
			continue

		case opPushLit:
			stack[sp] = value{v: in.imm, w: in.w}
			sp++

		case opPushRef:
			v, ok := refVal(fn, g, fr, in.flg&3, in.a)
			if !ok {
				return m.undefRef(fn, in.flg&3, in.a)
			}
			stack[sp] = v
			sp++

		case opPushInLen:
			stack[sp] = value{v: uint64(len(m.input)), w: 32}
			sp++

		case opBinPop:
			a, b := &stack[sp-2], &stack[sp-1]
			if a.w != b.w {
				return widthErr(lang.BinOp(in.sub), a.w, b.w)
			}
			var v value
			switch {
			case m.plain && lang.BinOp(in.sub) == lang.OpAdd:
				nv := (a.v + b.v) & bv.Mask(a.w)
				v = value{v: nv, w: a.w, wrapped: a.wrapped || b.wrapped || nv < a.v}
			case m.plain && lang.BinOp(in.sub) == lang.OpSub:
				v = value{v: (a.v - b.v) & bv.Mask(a.w), w: a.w, wrapped: a.wrapped || b.wrapped || b.v > a.v}
			case m.plain && lang.BinOp(in.sub) == lang.OpMul:
				v = value{v: (a.v * b.v) & bv.Mask(a.w), w: a.w, wrapped: a.wrapped || b.wrapped || mulWraps(a.v, b.v, a.w)}
			default:
				var err error
				if v, err = binopVal(lang.BinOp(in.sub), a, b, m.opts.TrackTaint); err != nil {
					return err
				}
			}
			sp--
			stack[sp-1] = v

		case opUnPop:
			stack[sp-1] = unop(in.flg&flgBit != 0, stack[sp-1])

		case opCvtPop:
			stack[sp-1] = convert(in.w, in.flg&flgBit != 0, stack[sp-1])

		case opInBytePop:
			stack[sp-1] = m.readInput(stack[sp-1])

		case opLoadPop:
			ptr, off := stack[sp-2], stack[sp-1]
			sp--
			v, err := m.loadMem(ptr.v, off.v)
			if err != nil {
				return err
			}
			stack[sp-1] = v

		case opStorePop:
			ptr, off, val := stack[sp-3], stack[sp-2], stack[sp-1]
			sp -= 3
			if err := m.storeMem(ptr.v, off.v, val); err != nil {
				return err
			}

		case opAllocPop:
			size := stack[sp-1]
			sp--
			// Heap-corruption check: glibc-style abort when a previously
			// clobbered red zone (allocator metadata) is observed.
			if b := m.canary; b != nil {
				m.out.MemErrs = append(m.out.MemErrs, MemError{
					Kind: InvalidWrite, Site: b.site, Offset: b.size, Size: b.size,
				})
				return errAbrt
			}
			m.nextID++
			base := m.nextID << 32
			m.blocks[base] = m.newBlock(fn.strs[in.aux], size.v)
			m.out.Allocs = append(m.out.Allocs, AllocEvent{
				Site:       fn.strs[in.aux],
				Seq:        len(m.out.Allocs),
				Size:       size.v,
				Width:      size.w,
				Sym:        size.sym,
				Taint:      size.tnt,
				Wrapped:    size.wrapped,
				BranchMark: len(m.out.Branches),
			})
			m.setRef(fr, (in.flg>>4)&3, in.dst, value{v: base, w: 64})

		case opPopRef:
			sp--
			m.setRef(fr, (in.flg>>4)&3, in.dst, stack[sp])

		case opPopDrop:
			sp--

		case opCall:
			callee := m.code.funcList[in.a]
			nargs := int(in.aux)
			base := sp - nargs
			m.fp++
			if m.fp == len(m.frames) {
				m.frames = append(m.frames, cframe{})
			}
			nf := &m.frames[m.fp]
			nf.ensure(callee.numSlots)
			for i, slot := range callee.params {
				nf.vals[slot] = stack[base+i]
				nf.set[slot] = true
			}
			sp = base
			if need := sp + callee.maxStack; need > len(stack) {
				ns := make([]value, need+64)
				copy(ns, stack[:sp])
				stack = ns
				m.stack = ns
			}
			if need := bsp + callee.maxBools; need > len(bstack) {
				nb := make([]bval, need+16)
				copy(nb, bstack[:bsp])
				bstack = nb
				m.bstack = nb
			}
			m.calls = append(m.calls, callSite{fn: fn, pc: pc + 1})
			fn = callee
			code = fn.code
			fr = nf
			pc = 0
			continue

		case opRetPop, opRetVoid:
			rv := value{w: 32}
			if in.op == opRetPop {
				sp--
				rv = stack[sp]
			}
			m.fp--
			n := len(m.calls)
			if n == 0 {
				return nil // main finished
			}
			cs := m.calls[n-1]
			m.calls = m.calls[:n-1]
			fn = cs.fn
			code = fn.code
			pc = cs.pc
			fr = &m.frames[m.fp]
			stack[sp] = rv
			sp++
			continue

		case opPushBool:
			bstack[bsp] = bval{v: in.flg&flgBit != 0}
			bsp++

		case opCmpPop:
			a, b := &stack[sp-2], &stack[sp-1]
			if a.w != b.w {
				return widthErr(lang.CmpOp(in.sub), a.w, b.w)
			}
			var cv bool
			switch lang.CmpOp(in.sub) {
			case lang.CmpEq:
				cv = a.v == b.v
			case lang.CmpNe:
				cv = a.v != b.v
			case lang.CmpUlt:
				cv = a.v < b.v
			case lang.CmpUle:
				cv = a.v <= b.v
			case lang.CmpUgt:
				cv = a.v > b.v
			case lang.CmpUge:
				cv = a.v >= b.v
			default:
				cv = loopCmp(lang.CmpOp(in.sub), a.v, b.v, a.w)
			}
			var sym *bv.Bool
			if a.sym != nil || b.sym != nil {
				sym = symCmp(lang.CmpOp(in.sub), a.term(), b.term())
			}
			sp -= 2
			bstack[bsp] = bval{v: cv, sym: sym}
			bsp++

		case opNotPop:
			t := &bstack[bsp-1]
			t.v = !t.v
			if t.sym != nil {
				t.sym = bv.NotB(t.sym)
			}

		case opAndPop, opOrPop:
			a, b := bstack[bsp-2], bstack[bsp-1]
			bsp--
			isAnd := in.op == opAndPop
			sym := combineBool(a.v, a.sym, b.v, b.sym, isAnd)
			var cv bool
			if isAnd {
				cv = a.v && b.v
			} else {
				cv = a.v || b.v
			}
			bstack[bsp-1] = bval{v: cv, sym: sym}

		case opBranch:
			// The cancellation point: every loop iteration passes through a
			// branch, so a closed Options.Cancel is observed within
			// cancelPollInterval branches. The tree-walker polls before the
			// condition evaluates rather than after; the cadence (one
			// countdown per branch evaluation) is identical, so uncancelled
			// runs are byte-identical.
			if m.opts.Cancel != nil {
				if err := m.pollCancel(); err != nil {
					return err
				}
			}
			bsp--
			t := bstack[bsp]
			if m.opts.TrackSymbolic && t.sym != nil {
				cond := t.sym
				if !t.v {
					cond = bv.NotB(cond)
				}
				m.out.Branches = append(m.out.Branches, BranchRecord{
					Label: fn.strs[in.aux],
					Taken: t.v,
					Cond:  cond,
				})
			}
			if !t.v {
				pc = in.dst
				continue
			}

		case opAbortStmt:
			m.out.AbortMsg = fn.strs[in.aux]
			return errAbort

		case opWarnStmt:
			m.out.Warnings = append(m.out.Warnings, fn.strs[in.aux])

		case opAssignRef:
			v, ok := refVal(fn, g, fr, in.flg&3, in.a)
			if !ok {
				return m.undefRef(fn, in.flg&3, in.a)
			}
			m.setRef(fr, (in.flg>>4)&3, in.dst, v)

		case opAssignCvt:
			a, ok := refVal(fn, g, fr, in.flg&3, in.a)
			if !ok {
				return m.undefRef(fn, in.flg&3, in.a)
			}
			m.setRef(fr, (in.flg>>4)&3, in.dst, convert(in.w, in.flg&flgBit != 0, a))

		case opAssignInByte:
			a, ok := refVal(fn, g, fr, in.flg&3, in.a)
			if !ok {
				return m.undefRef(fn, in.flg&3, in.a)
			}
			m.setRef(fr, (in.flg>>4)&3, in.dst, m.readInput(a))

		case opAssignBin, opPushBin:
			ch := int64(in.charge)
			var a, b value
			var ok bool
			if m.fuel > ch {
				m.fuel -= ch
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					m.fuel++ // the second leaf's step, never charged by the tree
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			} else {
				if !m.chargeExact(ch - 1) {
					return errFuel
				}
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if !m.chargeExact(1) {
					return errFuel
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			}
			if a.w != b.w {
				return widthErr(lang.BinOp(in.sub), a.w, b.w)
			}
			// Plain-mode fast arithmetic for the dominant ops: no taint
			// union, no symbolic build; wrapped tracking matches binopVal
			// bit for bit.
			var v value
			switch {
			case m.plain && lang.BinOp(in.sub) == lang.OpAdd:
				nv := (a.v + b.v) & bv.Mask(a.w)
				v = value{v: nv, w: a.w, wrapped: a.wrapped || b.wrapped || nv < a.v}
			case m.plain && lang.BinOp(in.sub) == lang.OpSub:
				v = value{v: (a.v - b.v) & bv.Mask(a.w), w: a.w, wrapped: a.wrapped || b.wrapped || b.v > a.v}
			case m.plain && lang.BinOp(in.sub) == lang.OpMul:
				v = value{v: (a.v * b.v) & bv.Mask(a.w), w: a.w, wrapped: a.wrapped || b.wrapped || mulWraps(a.v, b.v, a.w)}
			default:
				var err error
				if v, err = binopVal(lang.BinOp(in.sub), &a, &b, m.opts.TrackTaint); err != nil {
					return err
				}
			}
			if in.op == opAssignBin {
				m.setRef(fr, (in.flg>>4)&3, in.dst, v)
			} else {
				stack[sp] = v
				sp++
			}

		case opJcc:
			if m.opts.Cancel != nil {
				if err := m.pollCancel(); err != nil {
					return err
				}
			}
			ch := int64(in.charge)
			var a, b value
			var ok bool
			if m.fuel > ch {
				m.fuel -= ch
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					m.fuel++
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			} else {
				if !m.chargeExact(ch - 1) {
					return errFuel
				}
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if !m.chargeExact(1) {
					return errFuel
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			}
			if a.w != b.w {
				return widthErr(lang.CmpOp(in.sub), a.w, b.w)
			}
			var cv bool
			switch lang.CmpOp(in.sub) {
			case lang.CmpEq:
				cv = a.v == b.v
			case lang.CmpNe:
				cv = a.v != b.v
			case lang.CmpUlt:
				cv = a.v < b.v
			case lang.CmpUle:
				cv = a.v <= b.v
			case lang.CmpUgt:
				cv = a.v > b.v
			case lang.CmpUge:
				cv = a.v >= b.v
			default:
				cv = loopCmp(lang.CmpOp(in.sub), a.v, b.v, a.w)
			}
			if m.opts.TrackSymbolic && (a.sym != nil || b.sym != nil) {
				cond := symCmp(lang.CmpOp(in.sub), a.term(), b.term())
				if !cv {
					cond = bv.NotB(cond)
				}
				m.out.Branches = append(m.out.Branches, BranchRecord{
					Label: fn.strs[in.aux],
					Taken: cv,
					Cond:  cond,
				})
			}
			if !cv {
				pc = in.dst
				continue
			}

		case opAssignLoad:
			ch := int64(in.charge)
			var ptr, off value
			var ok bool
			if m.fuel > ch {
				m.fuel -= ch
				if ptr, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					m.fuel++
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if off, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			} else {
				if !m.chargeExact(ch - 1) {
					return errFuel
				}
				if ptr, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if !m.chargeExact(1) {
					return errFuel
				}
				if off, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			}
			v, err := m.loadMem(ptr.v, off.v)
			if err != nil {
				return err
			}
			m.setRef(fr, (in.flg>>4)&3, in.dst, v)

		case opStoreRef:
			// Charges: pending + ptr(1) + off(1, +1 when ZX-wrapped) + val(1).
			ch := int64(in.charge)
			zx := int64(0)
			if in.flg&flgZX != 0 {
				zx = 1
			}
			var ptr, off, val value
			var ok bool
			if m.fuel > ch {
				m.fuel -= ch
				if ptr, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					m.fuel += 2 + zx
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if off, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					m.fuel++
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
				if val, ok = refVal(fn, g, fr, (in.flg>>4)&3, in.dst); !ok {
					return m.undefRef(fn, (in.flg>>4)&3, in.dst)
				}
			} else {
				if !m.chargeExact(ch - 2 - zx) {
					return errFuel
				}
				if ptr, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if !m.chargeExact(1 + zx) {
					return errFuel
				}
				if off, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
				if !m.chargeExact(1) {
					return errFuel
				}
				if val, ok = refVal(fn, g, fr, (in.flg>>4)&3, in.dst); !ok {
					return m.undefRef(fn, (in.flg>>4)&3, in.dst)
				}
			}
			if zx != 0 {
				off = convert(64, false, off)
			}
			if err := m.storeMem(ptr.v, off.v, val); err != nil {
				return err
			}

		case opLoadOpStore:
			if err := m.execLoadOpStore(fn, fr, in); err != nil {
				return err
			}

		case opPushLoadZX, opAssignLoadZX:
			ch := int64(in.charge)
			var a, b value
			var ok bool
			if m.fuel > ch {
				m.fuel -= ch
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					m.fuel++
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			} else {
				if !m.chargeExact(ch - 1) {
					return errFuel
				}
				if a, ok = refVal(fn, g, fr, in.flg&3, in.a); !ok {
					return m.undefRef(fn, in.flg&3, in.a)
				}
				if !m.chargeExact(1) {
					return errFuel
				}
				if b, ok = refVal(fn, g, fr, (in.flg>>2)&3, in.b); !ok {
					return m.undefRef(fn, (in.flg>>2)&3, in.b)
				}
			}
			if a.w != b.w {
				return widthErr(lang.OpAdd, a.w, b.w)
			}
			var v value
			if m.plain {
				// Plain mode: no value carries taint or symbolic state,
				// readInput drops the index's wrapped flag, and the unsigned
				// widening only moves the byte — compute the chain inline.
				i := int((a.v + b.v) & bv.Mask(a.w))
				var bv8 uint64
				if i >= 0 && i < len(m.input) {
					bv8 = uint64(m.input[i])
				}
				if in.w < 8 {
					bv8 &= bv.Mask(in.w)
				}
				v = value{v: bv8, w: in.w}
			} else {
				idx, err := binopVal(lang.OpAdd, &a, &b, true)
				if err != nil {
					return err
				}
				v = convert(in.w, false, m.readInput(idx))
			}
			if in.op == opAssignLoadZX {
				m.setRef(fr, (in.flg>>4)&3, in.dst, v)
			} else {
				stack[sp] = v
				sp++
			}

		case opStoreLoop:
			m.runStoreLoop(fr, &fn.loops[in.imm])
			// Falls through to the generic loop head at pc+1, which
			// re-evaluates the condition with exact charges (and handles the
			// exit, any memory event, or fuel exhaustion precisely).

		default:
			return fmt.Errorf("interp: unknown opcode %d", in.op)
		}
		pc++
	}
}

// execLoadOpStore runs the fused read-modify-write superinstruction
// Store(p, o, Load(p2, o2) <op> leaf). Charges: pending + p(1) + o(1) +
// bin(1) + load(1) + p2(1) + o2(1) + v(1); the trailing refunds on the hot
// path mirror how far the tree-walker's pre-order charging would have gone
// when an early read errors.
func (m *Machine) execLoadOpStore(fn *cFunc, fr *cframe, in *instr) error {
	kP := in.aux & 3
	kO := (in.aux >> 2) & 3
	kP2 := (in.aux >> 4) & 3
	kO2 := (in.aux >> 6) & 3
	kV := (in.aux >> 8) & 3
	o2Idx := int32(in.imm >> 32)
	vIdx := int32(uint32(in.imm))
	ch := int64(in.charge)
	g := &m.globals
	var p, o, p2, o2, v value
	var ok bool
	if m.fuel > ch {
		m.fuel -= ch
		if p, ok = refVal(fn, g, fr, uint8(kP), in.a); !ok {
			m.fuel += 6
			return m.undefRef(fn, uint8(kP), in.a)
		}
		if o, ok = refVal(fn, g, fr, uint8(kO), in.b); !ok {
			m.fuel += 5
			return m.undefRef(fn, uint8(kO), in.b)
		}
		if p2, ok = refVal(fn, g, fr, uint8(kP2), in.dst); !ok {
			m.fuel += 2
			return m.undefRef(fn, uint8(kP2), in.dst)
		}
		if o2, ok = refVal(fn, g, fr, uint8(kO2), o2Idx); !ok {
			m.fuel++
			return m.undefRef(fn, uint8(kO2), o2Idx)
		}
		lv, err := m.loadMem(p2.v, o2.v)
		if err != nil {
			m.fuel++ // the value leaf's step, never charged by the tree
			return err
		}
		if v, ok = refVal(fn, g, fr, uint8(kV), vIdx); !ok {
			return m.undefRef(fn, uint8(kV), vIdx)
		}
		return m.finishLoadOpStore(in, p, o, lv, v)
	}
	if !m.chargeExact(ch - 6) {
		return errFuel
	}
	if p, ok = refVal(fn, g, fr, uint8(kP), in.a); !ok {
		return m.undefRef(fn, uint8(kP), in.a)
	}
	if !m.chargeExact(1) {
		return errFuel
	}
	if o, ok = refVal(fn, g, fr, uint8(kO), in.b); !ok {
		return m.undefRef(fn, uint8(kO), in.b)
	}
	if !m.chargeExact(3) {
		return errFuel
	}
	if p2, ok = refVal(fn, g, fr, uint8(kP2), in.dst); !ok {
		return m.undefRef(fn, uint8(kP2), in.dst)
	}
	if !m.chargeExact(1) {
		return errFuel
	}
	if o2, ok = refVal(fn, g, fr, uint8(kO2), o2Idx); !ok {
		return m.undefRef(fn, uint8(kO2), o2Idx)
	}
	lv, err := m.loadMem(p2.v, o2.v)
	if err != nil {
		return err
	}
	if !m.chargeExact(1) {
		return errFuel
	}
	if v, ok = refVal(fn, g, fr, uint8(kV), vIdx); !ok {
		return m.undefRef(fn, uint8(kV), vIdx)
	}
	return m.finishLoadOpStore(in, p, o, lv, v)
}

func (m *Machine) finishLoadOpStore(in *instr, p, o, lv, v value) error {
	if lv.w != v.w {
		return widthErr(lang.BinOp(in.sub), lv.w, v.w)
	}
	r, err := binopVal(lang.BinOp(in.sub), &lv, &v, m.opts.TrackTaint)
	if err != nil {
		return err
	}
	return m.storeMem(p.v, o.v, r)
}

// --- bulk store loop ---

// loopOp operand kinds for the storeLoop matcher (see matchStoreLoop in
// compile.go): a literal, a variable optionally scaled by a literal
// (Mul(V, Lit)), or — offset position only — either of those zero-extended to
// 64 bits, optionally plus a 64-bit literal.
const (
	lkLit uint8 = iota
	lkVar
	lkZX
	lkZXAdd
)

type loopOp struct {
	kind   uint8
	global bool
	mul    bool // base is Mul(VarRef, Lit(coef))
	slot   int32
	coef   uint64
	coefW  uint8
	litV   uint64
	litW   uint8
	addend uint64
	charge int64 // tree step charges for one evaluation of this operand
}

// storeLoop describes a matched canonical memset-style loop:
//
//	While(Cmp(op, X, Y)) { Store(p, OFF, v); i = i ± k }
//
// executed as a bulk instruction in plain mode, bailing to the generic
// lowered loop (which immediately follows the opStoreLoop instruction) on
// any condition the fast path cannot reproduce exactly.
type storeLoop struct {
	ptrSlot   int32
	ptrGlobal bool
	off       loopOp
	valIsLit  bool
	val       value // pre-masked literal (valIsLit)
	valSlot   int32
	valGlobal bool
	cmp       lang.CmpOp
	condA     loopOp
	condB     loopOp
	ivSlot    int32
	ivGlobal  bool
	sub       bool // i = i - k instead of i = i + k
	k         uint64
	kw        uint8
	perIter   int64 // total tree step charges of one full iteration
}

// resOp is a loop operand resolved against the loop's invariants: either a
// fixed value or a function of the induction variable.
type resOp struct {
	dyn    bool
	hasAdd bool
	mul    bool
	w      uint8
	v      uint64 // invariant value (dyn=false)
	coef   uint64
	mask   uint64 // modulus of the base width
	add    uint64
}

func (r *resOp) eval(iv uint64) uint64 {
	if !r.dyn {
		return r.v
	}
	v := iv
	if r.mul {
		v = (v * r.coef) & r.mask
	}
	if r.hasAdd {
		v += r.add // 64-bit position (post-ZX), natural wraparound
	}
	return v
}

func (m *Machine) readSlot(fr *cframe, global bool, slot int32) (value, bool) {
	if global {
		if !m.globals.set[slot] {
			return value{}, false
		}
		return m.globals.vals[slot], true
	}
	if !fr.set[slot] {
		return value{}, false
	}
	return fr.vals[slot], true
}

// resolveLoopOp fixes a loop operand against the current frame. ok=false
// means the fast path cannot run (undefined variable, width mismatch) and the
// generic loop must take over to reproduce the exact error.
func (m *Machine) resolveLoopOp(op *loopOp, fr *cframe, ivSlot int32, ivGlobal bool, iw uint8) (resOp, bool) {
	if op.kind == lkLit {
		return resOp{v: op.litV, w: op.litW}, true
	}
	r := resOp{mul: op.mul, coef: op.coef}
	dyn := op.slot == ivSlot && op.global == ivGlobal
	var baseW uint8
	var baseV uint64
	if dyn {
		baseW = iw
	} else {
		bv2, ok := m.readSlot(fr, op.global, op.slot)
		if !ok {
			return resOp{}, false
		}
		baseV, baseW = bv2.v, bv2.w
	}
	if op.mul && op.coefW != baseW {
		return resOp{}, false // width mismatch: generic raises the exact error
	}
	r.mask = bv.Mask(baseW)
	r.w = baseW
	if op.kind == lkZX || op.kind == lkZXAdd {
		r.w = 64
	}
	if op.kind == lkZXAdd {
		r.hasAdd = true
		r.add = op.addend
	}
	r.dyn = dyn
	if !dyn {
		v := baseV
		if op.mul {
			v = (v * op.coef) & r.mask
		}
		if r.hasAdd {
			v += op.addend
		}
		r.v = v
	}
	return r, true
}

func loopCmp(op lang.CmpOp, a, b uint64, w uint8) bool {
	switch op {
	case lang.CmpEq:
		return a == b
	case lang.CmpNe:
		return a != b
	case lang.CmpUlt:
		return a < b
	case lang.CmpUle:
		return a <= b
	case lang.CmpUgt:
		return a > b
	case lang.CmpUge:
		return a >= b
	case lang.CmpSlt:
		return int64(signExtend(a, w)) < int64(signExtend(b, w))
	case lang.CmpSle:
		return int64(signExtend(a, w)) <= int64(signExtend(b, w))
	case lang.CmpSgt:
		return int64(signExtend(a, w)) > int64(signExtend(b, w))
	default:
		return int64(signExtend(a, w)) >= int64(signExtend(b, w))
	}
}

// runStoreLoop executes as many fast iterations of a matched memset-style
// loop as can be proven observation-free: in-bounds stores (dense prefix or
// far log alike), condition true, fuel strictly above the per-iteration
// charge, and no cancellation poll due. Every anomaly bails — before
// consuming any of the bailing iteration's charges — to the generic lowered
// loop that follows, which reproduces events, errors, exits and fuel
// exhaustion exactly.
func (m *Machine) runStoreLoop(fr *cframe, lp *storeLoop) {
	if !m.plain {
		return // taint/symbolic runs observe every store; generic path only
	}
	ptr, ok := m.readSlot(fr, lp.ptrGlobal, lp.ptrSlot)
	if !ok {
		return
	}
	b, okb := m.blocks[ptr.v]
	if !okb {
		return
	}
	ivv, ok := m.readSlot(fr, lp.ivGlobal, lp.ivSlot)
	if !ok {
		return
	}
	iv, iw, iwr := ivv.v, ivv.w, ivv.wrapped
	if lp.kw != iw {
		return // increment width mismatch: generic raises the exact error
	}
	kmask := bv.Mask(iw)
	condA, ok := m.resolveLoopOp(&lp.condA, fr, lp.ivSlot, lp.ivGlobal, iw)
	if !ok {
		return
	}
	condB, ok := m.resolveLoopOp(&lp.condB, fr, lp.ivSlot, lp.ivGlobal, iw)
	if !ok {
		return
	}
	if condA.w != condB.w {
		return
	}
	off, ok := m.resolveLoopOp(&lp.off, fr, lp.ivSlot, lp.ivGlobal, iw)
	if !ok {
		return
	}
	var val value
	if lp.valIsLit {
		val = lp.val
	} else {
		if val, ok = m.readSlot(fr, lp.valGlobal, lp.valSlot); !ok {
			return
		}
	}
	poll := m.opts.Cancel != nil
	dense := uint64(len(b.dense))
	ran := false
	for {
		if m.fuel <= lp.perIter {
			break
		}
		if poll {
			if m.cancelPoll <= 1 {
				break // let the generic branch hit the poll exactly
			}
			m.cancelPoll--
		}
		if !loopCmp(lp.cmp, condA.eval(iv), condB.eval(iv), condA.w) {
			break // generic re-evaluates the exit condition with charges
		}
		ov := off.eval(iv)
		if ov >= b.size {
			break // red zone or segv: generic raises the events
		}
		if ov < dense {
			b.dense[ov] = val
			b.stamp[ov] = b.gen
		} else {
			b.storeFar(ov, val, true) // storeCell's plain far write
		}
		if lp.sub {
			if lp.k > iv {
				iwr = true
			}
			iv = (iv - lp.k) & kmask
		} else {
			nv := (iv + lp.k) & kmask
			if nv < iv {
				iwr = true
			}
			iv = nv
		}
		m.fuel -= lp.perIter
		ran = true
	}
	if ran {
		wv := value{v: iv, w: iw, wrapped: iwr}
		if lp.ivGlobal {
			m.globals.vals[lp.ivSlot] = wv
		} else {
			fr.vals[lp.ivSlot] = wv
		}
	}
}
