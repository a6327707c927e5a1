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
// Fuel (see Options.Fuel) is charged at the same points as in the
// tree-walker and nowhere else: opBranch and opJcc once the condition's value
// is known and before the branch record, and opCall at entry, with its
// arguments already evaluated. The instruction stream, its fusions included,
// carries no fuel bookkeeping. The bulk store loop debits one unit for each
// iteration it retires in place of the loop head's branch.

// Instruction opcodes.
const (
	opJmp uint8 = iota
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
	opAssignBin    // dst = leaf <op> leaf
	opPushBin      // push leaf <op> leaf (add/cmp-immediate shapes)
	opJcc          // fused Cmp(leaf, leaf) + branch loop head
	opStoreRef     // Store(leaf, leaf | ZX(64, leaf), leaf)
	opPushLoadZX   // push ZX(w, In(leaf + leaf))
	opAssignLoadZX // dst = ZX(w, In(leaf + leaf))
	opStoreLoop    // bulk memset-style loop body (descriptor in imm)
)

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
	op   uint8
	sub  uint8  // lang.BinOp / lang.CmpOp subcode
	w    uint8  // width operand (conversions, literals)
	flg  uint8  // ref kinds + flags, see above
	aux  uint16 // index into cFunc.strs (labels, sites, messages); arg count for opCall
	a, b int32  // operand refs; function index for opCall
	dst  int32  // destination slot ref or branch target
	imm  uint64 // literal value (opPushLit), loop-descriptor index (opStoreLoop)
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
// kept small enough to inline.
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
	names := fn.src.Locals()
	if kind == refGlobal {
		names = m.code.prog.Globals()
	}
	name := names[idx]
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

// leafFault ends a two-leaf fused instruction that read an undefined leaf,
// reporting the first undefined read as the tree-walker's left-to-right
// evaluation does. refVal has no effects, so reading both leaves first is
// indistinguishable from the tree's order.
func (m *Machine) leafFault(fn *cFunc, in *instr, okA bool) error {
	if !okA {
		return m.undefRef(fn, in.flg&3, in.a)
	}
	return m.undefRef(fn, (in.flg>>2)&3, in.b)
}

// storeMem performs the Store effect sequence (event, canary, segv, cell
// write) shared by opStorePop and opStoreRef.
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
		switch in.op {
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
			ptr, off := stack[sp-2].v, stack[sp-1].v
			sp--
			b, ok := m.blocks[ptr]
			if !ok {
				return fmt.Errorf("interp: load through non-pointer %#x", ptr)
			}
			if off >= b.size {
				m.out.MemErrs = append(m.out.MemErrs, MemError{
					Kind: InvalidRead, Site: b.site, Offset: off, Size: b.size,
				})
				if off >= b.size+RedZone {
					return errSegv
				}
			}
			stack[sp-1] = b.loadCell(off)

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
			if err := m.tick(); err != nil {
				return err
			}
			callee := m.code.funcList[in.a]
			nargs := int(in.aux)
			base := sp - nargs
			m.fp++
			if m.fp == len(m.frames) {
				m.frames = append(m.frames, cframe{})
			}
			nf := &m.frames[m.fp]
			nf.ensure(callee.numSlots)
			// Argument i binds frame slot i (lang's parameter slots).
			for i := range nargs {
				nf.vals[i] = stack[base+i]
				nf.set[i] = true
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
			bsp--
			t := bstack[bsp]
			if err := m.tick(); err != nil {
				return err
			}
			if m.opts.Symbolic != nil && t.sym != nil {
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

		case opAssignBin, opPushBin:
			a, okA := refVal(fn, g, fr, in.flg&3, in.a)
			b, okB := refVal(fn, g, fr, (in.flg>>2)&3, in.b)
			if !okA || !okB {
				return m.leafFault(fn, in, okA)
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
			a, okA := refVal(fn, g, fr, in.flg&3, in.a)
			b, okB := refVal(fn, g, fr, (in.flg>>2)&3, in.b)
			if !okA || !okB {
				return m.leafFault(fn, in, okA)
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
			if err := m.tick(); err != nil {
				return err
			}
			if m.opts.Symbolic != nil && (a.sym != nil || b.sym != nil) {
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

		case opStoreRef:
			ptr, okP := refVal(fn, g, fr, in.flg&3, in.a)
			off, okO := refVal(fn, g, fr, (in.flg>>2)&3, in.b)
			val, okV := refVal(fn, g, fr, (in.flg>>4)&3, in.dst)
			switch {
			case !okP:
				return m.undefRef(fn, in.flg&3, in.a)
			case !okO:
				return m.undefRef(fn, (in.flg>>2)&3, in.b)
			case !okV:
				return m.undefRef(fn, (in.flg>>4)&3, in.dst)
			}
			if in.flg&flgZX != 0 {
				off = convert(64, false, off)
			}
			if err := m.storeMem(ptr.v, off.v, val); err != nil {
				return err
			}

		case opPushLoadZX, opAssignLoadZX:
			a, okA := refVal(fn, g, fr, in.flg&3, in.a)
			b, okB := refVal(fn, g, fr, (in.flg>>2)&3, in.b)
			if !okA || !okB {
				return m.leafFault(fn, in, okA)
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
			// re-evaluates the condition (and handles the exit, any memory
			// event, or fuel exhaustion precisely).

		default:
			return fmt.Errorf("interp: unknown opcode %d", in.op)
		}
		pc++
	}
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
	slot   int
	coef   uint64
	coefW  uint8
	litV   uint64
	litW   uint8
	addend uint64
}

// storeLoop describes a matched canonical memset-style loop:
//
//	While(Cmp(op, X, Y)) { Store(p, OFF, v); i = i ± k }
//
// executed as a bulk instruction in plain mode, bailing to the generic
// lowered loop (which immediately follows the opStoreLoop instruction) on
// any condition the fast path cannot reproduce exactly.
type storeLoop struct {
	ptrSlot   int
	ptrGlobal bool
	off       loopOp
	valIsLit  bool
	val       value // pre-masked literal (valIsLit)
	valSlot   int
	valGlobal bool
	cmp       lang.CmpOp
	condA     loopOp
	condB     loopOp
	ivSlot    int
	ivGlobal  bool
	sub       bool // i = i - k instead of i = i + k
	k         uint64
	kw        uint8
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

func (m *Machine) readSlot(fr *cframe, global bool, slot int) (value, bool) {
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
func (m *Machine) resolveLoopOp(op *loopOp, fr *cframe, ivSlot int, ivGlobal bool, iw uint8) (resOp, bool) {
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
// far log alike), condition true, and fuel left after the iteration's unit.
// Each iteration debits the unit its loop-head branch would charge. Every
// anomaly bails, before the bailing iteration's unit is debited, to the
// generic lowered loop that follows, which reproduces events, errors, exits
// and fuel exhaustion exactly. The bulk loop does not poll Options.Cancel:
// it retires at most the remaining fuel's iterations, milliseconds of work,
// before the generic loop head charges (and polls) again.
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
	dense := uint64(len(b.dense))
	ran := false
	for m.fuel > 1 { // the unit that exhausts is the generic loop head's
		if !loopCmp(lp.cmp, condA.eval(iv), condB.eval(iv), condA.w) {
			break // generic re-evaluates the exit condition
		}
		ov := off.eval(iv)
		if ov >= b.size {
			break // red zone or segv: generic raises the events
		}
		if ov < dense {
			b.dense[ov] = val
			b.stamp[ov] = b.gen
		} else if ov < b.split || !b.far.extend(ov, &val) {
			// storeCell grows the dense prefix before a dense write past
			// it, or makes a far write that starts a new log entry.
			b.storeCell(ov, val, true)
			dense = uint64(len(b.dense))
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
		m.fuel--
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
