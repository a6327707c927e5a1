package interp

import (
	"fmt"
	"sort"

	"diode/internal/bv"
	"diode/internal/lang"
)

// Compiled is the direct-threaded executable form of a finalized program:
// every function body is one linear []instr stream (branch targets are
// instruction indices), every variable reference is resolved to an integer
// frame slot (locals) or a program-wide global slot, literals are pre-masked
// into per-function tables, and call targets are function indices. A Compiled
// is immutable after Compile returns and safe to share across any number of
// concurrent Machines — the Analyzer compiles each application once and every
// site's Hunter executes the same Compiled on a private Machine.
type Compiled struct {
	prog     *lang.Program // global slots and every slot's name
	funcs    map[string]*cFunc
	funcList []*cFunc // opCall targets by index
	main     *cFunc
}

// cFunc is one compiled procedure: its instruction stream plus the constant
// pools the instructions index into.
type cFunc struct {
	src      *lang.Func // slot resolution; parameter i binds frame slot i
	idx      int32
	numSlots int
	code     []instr
	lits     []value     // pre-masked literal operands (refLit)
	strs     []string    // labels, allocation sites, abort/warn messages
	loops    []storeLoop // bulk-loop descriptors (opStoreLoop)
	maxStack int         // value-stack slots this function needs above its base
	maxBools int         // bool-stack slots this function needs above its base
}

// Compile lowers a finalized program into its direct-threaded form, taking
// every variable's slot from the program's Finalize resolution. It panics
// on a program that has not been finalized; run Program.Finalize first.
func Compile(prog *lang.Program) *Compiled {
	c := &Compiled{
		prog:  prog,
		funcs: make(map[string]*cFunc, len(prog.Funcs)),
	}
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	// Shells first so mutually recursive calls resolve to stable indices.
	for i, n := range names {
		src := prog.Funcs[n]
		f := &cFunc{src: src, idx: int32(i), numSlots: len(src.Locals())}
		c.funcs[n] = f
		c.funcList = append(c.funcList, f)
	}
	for _, f := range c.funcList {
		l := &lowerer{
			c:      c,
			f:      f,
			strIdx: map[string]uint16{},
			litIdx: map[litKey]int32{},
		}
		for _, s := range f.src.Body {
			l.stmt(s)
		}
		// Implicit end-of-body return.
		l.emit(instr{op: opRetVoid})
	}
	c.main = c.funcs["main"]
	if c.main == nil {
		panic("interp: Compile: program " + prog.Name + " has no main (not finalized?)")
	}
	return c
}

type litKey struct {
	v uint64
	w uint8
}

// lowerer compiles one procedure into its flat instruction stream.
type lowerer struct {
	c      *Compiled
	f      *cFunc
	strIdx map[string]uint16
	litIdx map[litKey]int32
	depth  int // current value-stack depth
	bdepth int // current bool-stack depth
}

func (l *lowerer) emit(i instr) int32 {
	l.f.code = append(l.f.code, i)
	return int32(len(l.f.code) - 1)
}

func (l *lowerer) here() int32 { return int32(len(l.f.code)) }

func (l *lowerer) patch(idx int32) { l.f.code[idx].dst = l.here() }

func (l *lowerer) pushV() {
	l.depth++
	if l.depth > l.f.maxStack {
		l.f.maxStack = l.depth
	}
}

func (l *lowerer) pushB() {
	l.bdepth++
	if l.bdepth > l.f.maxBools {
		l.f.maxBools = l.bdepth
	}
}

// varRef returns a variable's resolved slot and its operand kind.
func (l *lowerer) varRef(name string) (int32, uint8) {
	slot, global := l.f.src.Slot(name)
	if global {
		return int32(slot), refGlobal
	}
	return int32(slot), refLocal
}

func (l *lowerer) litRef(x lang.Lit) (int32, uint8) {
	k := litKey{v: x.V & bv.Mask(x.W), w: x.W}
	if i, ok := l.litIdx[k]; ok {
		return i, refLit
	}
	i := int32(len(l.f.lits))
	l.litIdx[k] = i
	l.f.lits = append(l.f.lits, value{v: k.v, w: k.w})
	return i, refLit
}

// leafRef resolves a leaf operand (literal or variable) of a fused
// instruction.
func (l *lowerer) leafRef(e lang.Expr) (int32, uint8, bool) {
	switch x := e.(type) {
	case lang.Lit:
		i, k := l.litRef(x)
		return i, k, true
	case lang.VarRef:
		i, k := l.varRef(x.Name)
		return i, k, true
	}
	return 0, 0, false
}

func isLeaf(e lang.Expr) bool {
	switch e.(type) {
	case lang.Lit, lang.VarRef:
		return true
	}
	return false
}

func (l *lowerer) str(s string) uint16 {
	if i, ok := l.strIdx[s]; ok {
		return i
	}
	i := uint16(len(l.f.strs))
	l.strIdx[s] = i
	l.f.strs = append(l.f.strs, s)
	return i
}

func (l *lowerer) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case lang.Assign:
		l.assign(st)
	case lang.Alloc:
		l.pushExpr(st.Size)
		dst, dk := l.varRef(st.Var)
		l.emit(instr{op: opAllocPop, flg: dk << 4, aux: l.str(st.Site), dst: dst})
		l.depth--
	case lang.Store:
		l.store(st)
	case lang.If:
		br := l.condBranch(st.Label, st.Cond)
		for _, t := range st.Then {
			l.stmt(t)
		}
		if len(st.Else) > 0 {
			j := l.emit(instr{op: opJmp})
			l.patch(br)
			for _, t := range st.Else {
				l.stmt(t)
			}
			l.patch(j)
		} else {
			l.patch(br)
		}
	case lang.While:
		head := l.here()
		if lp, ok := l.matchStoreLoop(st); ok {
			l.f.loops = append(l.f.loops, lp)
			l.emit(instr{op: opStoreLoop, imm: uint64(len(l.f.loops) - 1)})
		}
		br := l.condBranch(st.Label, st.Cond)
		for _, t := range st.Body {
			l.stmt(t)
		}
		l.emit(instr{op: opJmp, dst: head})
		l.patch(br)
	case lang.ExprStmt:
		l.pushExpr(st.E)
		l.emit(instr{op: opPopDrop})
		l.depth--
	case lang.Return:
		if st.E != nil {
			l.pushExpr(st.E)
			l.emit(instr{op: opRetPop})
			l.depth--
		} else {
			l.emit(instr{op: opRetVoid})
		}
	case lang.AbortStmt:
		l.emit(instr{op: opAbortStmt, aux: l.str(st.Msg)})
	case lang.WarnStmt:
		l.emit(instr{op: opWarnStmt, aux: l.str(st.Msg)})
	default:
		panic(fmt.Sprintf("interp: Compile: unknown statement %T", s))
	}
}

// assign lowers an assignment, fusing the common right-hand shapes (leaf
// copy, leaf binop — the add-immediate idiom — and the ZX(w, In(leaf+leaf))
// superinstruction) into single instructions.
func (l *lowerer) assign(st lang.Assign) {
	dst, dk := l.varRef(st.Var)
	switch e := st.E.(type) {
	case lang.Lit, lang.VarRef:
		a, ak, _ := l.leafRef(e)
		l.emit(instr{op: opAssignRef, flg: ak | dk<<4, a: a, dst: dst})
		return
	case lang.Bin:
		if a, ak, ok := l.leafRef(e.A); ok {
			if b, bk, ok2 := l.leafRef(e.B); ok2 {
				l.emit(instr{op: opAssignBin, sub: uint8(e.Op), flg: ak | bk<<2 | dk<<4, a: a, b: b, dst: dst})
				return
			}
		}
	case lang.Cvt:
		if a, b, ok := matchLoadZX(e); ok {
			ai, ak, _ := l.leafRef(a)
			bi, bk, _ := l.leafRef(b)
			l.emit(instr{op: opAssignLoadZX, w: e.W, flg: ak | bk<<2 | dk<<4, a: ai, b: bi, dst: dst})
			return
		}
	}
	l.pushExpr(st.E)
	l.emit(instr{op: opPopRef, flg: dk << 4, dst: dst})
	l.depth--
}

// store lowers a Store statement, fusing the all-leaf form (with an optional
// ZX(64, leaf) offset) into one opStoreRef.
func (l *lowerer) store(st lang.Store) {
	if isLeaf(st.Ptr) && isLeaf(st.Val) {
		offE := st.Off
		zx := false
		if cv, isCvt := offE.(lang.Cvt); isCvt && !cv.Signed && cv.W == 64 && isLeaf(cv.A) {
			offE = cv.A
			zx = true
		}
		if isLeaf(offE) {
			p, kp, _ := l.leafRef(st.Ptr)
			o, ko, _ := l.leafRef(offE)
			v, kv, _ := l.leafRef(st.Val)
			f := kp | ko<<2 | kv<<4
			if zx {
				f |= flgZX
			}
			l.emit(instr{op: opStoreRef, flg: f, a: p, b: o, dst: v})
			return
		}
	}
	l.pushExpr(st.Ptr)
	l.pushExpr(st.Off)
	l.pushExpr(st.Val)
	l.emit(instr{op: opStorePop})
	l.depth -= 3
}

// pushExpr lowers an expression to instructions leaving its value on the
// value stack.
func (l *lowerer) pushExpr(e lang.Expr) {
	switch x := e.(type) {
	case lang.Lit:
		l.emit(instr{op: opPushLit, w: x.W, imm: x.V & bv.Mask(x.W)})
		l.pushV()
	case lang.VarRef:
		a, k := l.varRef(x.Name)
		l.emit(instr{op: opPushRef, flg: k, a: a})
		l.pushV()
	case lang.Bin:
		if a, ak, ok := l.leafRef(x.A); ok {
			if b, bk, ok2 := l.leafRef(x.B); ok2 {
				l.emit(instr{op: opPushBin, sub: uint8(x.Op), flg: ak | bk<<2, a: a, b: b})
				l.pushV()
				return
			}
		}
		l.pushExpr(x.A)
		l.pushExpr(x.B)
		l.emit(instr{op: opBinPop, sub: uint8(x.Op)})
		l.depth--
	case lang.Un:
		l.pushExpr(x.A)
		var f uint8
		if x.Neg {
			f = flgBit
		}
		l.emit(instr{op: opUnPop, flg: f})
	case lang.Cvt:
		if a, b, ok := matchLoadZX(x); ok {
			ai, ak, _ := l.leafRef(a)
			bi, bk, _ := l.leafRef(b)
			l.emit(instr{op: opPushLoadZX, w: x.W, flg: ak | bk<<2, a: ai, b: bi})
			l.pushV()
			return
		}
		l.pushExpr(x.A)
		var f uint8
		if x.Signed {
			f = flgBit
		}
		l.emit(instr{op: opCvtPop, w: x.W, flg: f})
	case lang.InByte:
		l.pushExpr(x.Idx)
		l.emit(instr{op: opInBytePop})
	case lang.InLen:
		l.emit(instr{op: opPushInLen})
		l.pushV()
	case lang.LoadExpr:
		l.pushExpr(x.Ptr)
		l.pushExpr(x.Off)
		l.emit(instr{op: opLoadPop})
		l.depth--
	case lang.CallExpr:
		callee, ok := l.c.funcs[x.Fn]
		if !ok {
			panic("interp: Compile: " + l.f.src.Name + " calls undefined function " + x.Fn)
		}
		for _, a := range x.Args {
			l.pushExpr(a)
		}
		l.emit(instr{op: opCall, a: callee.idx, aux: uint16(len(x.Args))})
		l.depth -= len(x.Args)
		l.pushV()
	default:
		panic(fmt.Sprintf("interp: Compile: unknown expression %T", e))
	}
}

// matchLoadZX recognizes the guests' hottest expression shape — an unsigned
// widening of an input byte addressed by a two-leaf sum,
// ZX(w, In(Add(leaf, leaf))) — for the opPushLoadZX/opAssignLoadZX
// superinstruction.
func matchLoadZX(x lang.Cvt) (lang.Expr, lang.Expr, bool) {
	if x.Signed {
		return nil, nil, false
	}
	ib, ok := x.A.(lang.InByte)
	if !ok {
		return nil, nil, false
	}
	bn, ok := ib.Idx.(lang.Bin)
	if !ok || bn.Op != lang.OpAdd || !isLeaf(bn.A) || !isLeaf(bn.B) {
		return nil, nil, false
	}
	return bn.A, bn.B, true
}

// condBranch lowers a branch condition plus the conditional jump, fusing the
// two-leaf comparison (the cmp-immediate loop-head idiom) into one opJcc.
// The returned instruction index's dst must be patched to the false target.
func (l *lowerer) condBranch(label string, cond lang.BoolExpr) int32 {
	if cmp, ok := cond.(lang.Cmp); ok && isLeaf(cmp.A) && isLeaf(cmp.B) {
		a, ak, _ := l.leafRef(cmp.A)
		b, bk, _ := l.leafRef(cmp.B)
		return l.emit(instr{op: opJcc, sub: uint8(cmp.Op), flg: ak | bk<<2, aux: l.str(label), a: a, b: b})
	}
	l.lowerBool(cond)
	l.bdepth--
	return l.emit(instr{op: opBranch, aux: l.str(label)})
}

func (l *lowerer) lowerBool(b lang.BoolExpr) {
	switch x := b.(type) {
	case lang.BoolLit:
		var f uint8
		if x.V {
			f = flgBit
		}
		l.emit(instr{op: opPushBool, flg: f})
		l.pushB()
	case lang.Cmp:
		l.pushExpr(x.A)
		l.pushExpr(x.B)
		l.emit(instr{op: opCmpPop, sub: uint8(x.Op)})
		l.depth -= 2
		l.pushB()
	case lang.NotE:
		l.lowerBool(x.A)
		l.emit(instr{op: opNotPop})
	case lang.AndE:
		l.lowerBool(x.A)
		l.lowerBool(x.B)
		l.emit(instr{op: opAndPop})
		l.bdepth--
	case lang.OrE:
		l.lowerBool(x.A)
		l.lowerBool(x.B)
		l.emit(instr{op: opOrPop})
		l.bdepth--
	default:
		panic(fmt.Sprintf("interp: Compile: unknown boolean expression %T", b))
	}
}

// matchStoreLoop recognizes the canonical memset-style loop
//
//	While(Cmp(op, X, Y)) { Store(p, OFF, v); i = i ± k }
//
// with X, Y drawn from {Lit, Var, Mul(Var, Lit)} and OFF additionally
// allowing ZX(64, ·) and Add(ZX(64, ·), Lit64) — the guests' row-fill and
// scaled-index idioms. The matched loop runs as a bulk opStoreLoop
// instruction in plain mode; the generic lowering still follows it and
// handles every case the fast path bails on.
func (l *lowerer) matchStoreLoop(st lang.While) (storeLoop, bool) {
	var lp storeLoop
	if len(st.Body) != 2 {
		return lp, false
	}
	store, ok := st.Body[0].(lang.Store)
	if !ok {
		return lp, false
	}
	asg, ok := st.Body[1].(lang.Assign)
	if !ok {
		return lp, false
	}
	bin, ok := asg.E.(lang.Bin)
	if !ok || (bin.Op != lang.OpAdd && bin.Op != lang.OpSub) {
		return lp, false
	}
	ivr, ok := bin.A.(lang.VarRef)
	if !ok || ivr.Name != asg.Var {
		return lp, false
	}
	kl, ok := bin.B.(lang.Lit)
	if !ok {
		return lp, false
	}
	cmp, ok := st.Cond.(lang.Cmp)
	if !ok {
		return lp, false
	}
	condA, ok := l.loopOperand(cmp.A, false)
	if !ok {
		return lp, false
	}
	condB, ok := l.loopOperand(cmp.B, false)
	if !ok {
		return lp, false
	}
	ptr, ok := store.Ptr.(lang.VarRef)
	if !ok || ptr.Name == asg.Var {
		return lp, false
	}
	off, ok := l.loopOperand(store.Off, true)
	if !ok {
		return lp, false
	}
	switch v := store.Val.(type) {
	case lang.Lit:
		lp.valIsLit = true
		lp.val = value{v: v.V & bv.Mask(v.W), w: v.W}
	case lang.VarRef:
		if v.Name == asg.Var {
			return lp, false
		}
		lp.valSlot, lp.valGlobal = l.f.src.Slot(v.Name)
	default:
		return lp, false
	}
	lp.ptrSlot, lp.ptrGlobal = l.f.src.Slot(ptr.Name)
	lp.ivSlot, lp.ivGlobal = l.f.src.Slot(asg.Var)
	lp.cmp = cmp.Op
	lp.condA, lp.condB, lp.off = condA, condB, off
	lp.sub = bin.Op == lang.OpSub
	lp.k = kl.V & bv.Mask(kl.W)
	lp.kw = kl.W
	return lp, true
}

// loopOperand classifies a loop-condition or offset operand for the bulk
// store loop.
func (l *lowerer) loopOperand(e lang.Expr, allowZX bool) (loopOp, bool) {
	switch x := e.(type) {
	case lang.Lit:
		return loopOp{kind: lkLit, litV: x.V & bv.Mask(x.W), litW: x.W}, true
	case lang.VarRef:
		s, g := l.f.src.Slot(x.Name)
		return loopOp{kind: lkVar, slot: s, global: g}, true
	case lang.Bin:
		switch {
		case x.Op == lang.OpMul:
			vr, ok := x.A.(lang.VarRef)
			if !ok {
				return loopOp{}, false
			}
			cl, ok := x.B.(lang.Lit)
			if !ok {
				return loopOp{}, false
			}
			s, g := l.f.src.Slot(vr.Name)
			return loopOp{kind: lkVar, slot: s, global: g, mul: true, coef: cl.V & bv.Mask(cl.W), coefW: cl.W}, true
		case allowZX && x.Op == lang.OpAdd:
			cv, ok := x.A.(lang.Cvt)
			if !ok || cv.Signed || cv.W != 64 {
				return loopOp{}, false
			}
			al, ok := x.B.(lang.Lit)
			if !ok || al.W != 64 {
				return loopOp{}, false
			}
			base, ok := l.loopOperand(cv.A, false)
			if !ok || base.kind != lkVar {
				return loopOp{}, false
			}
			base.kind = lkZXAdd
			base.addend = al.V
			return base, true
		}
	case lang.Cvt:
		if allowZX && !x.Signed && x.W == 64 {
			base, ok := l.loopOperand(x.A, false)
			if !ok || base.kind != lkVar {
				return loopOp{}, false
			}
			base.kind = lkZX
			return base, true
		}
	}
	return loopOp{}, false
}
