package bv

import "fmt"

// CompiledBool is a formula compiled for repeated concrete evaluation — the
// workload of the solver's randomized concrete search, which evaluates the
// same formula under thousands of candidate assignments. Compilation
// flattens the formula's unique subterms (the DAG is exposed by hash-consing:
// shared subterms are pointer-identical) into one topologically ordered
// instruction list with slice-indexed result slots, so each evaluation is a
// single pass over a flat array instead of a recursive walk allocating
// per-call memo maps.
//
// Variables are bound to slots at compile time: the i-th name passed to
// CompileBool lives in term slot i, and Eval reads the values from a vector
// in the same order, so an evaluation touches no map.
//
// The top-level conjuncts (Conjuncts) are compiled newest first, in reverse
// order, and an exit instruction after each one returns false as soon as a
// conjunct is false. The conjunct a solver session asserted last thus runs
// first: in the enforcement loop that is the newly flipped branch, the
// conjunct random draws fail most often. Within a conjunct evaluation is
// eager (no And/Or short circuit). Skipping the remaining conjuncts is
// result-identical to Assignment.EvalBool because every operator is total.
//
// A CompiledBool reuses its internal value slots across Eval calls and is
// therefore not safe for concurrent use; compile one per goroutine.
type CompiledBool struct {
	instrs []evalInstr
	tvals  []uint64
	bvals  []bool
	vmask  []uint64 // vmask[i] masks the value of variable slot i to its width
	root   int32    // bool slot holding the result
}

// Instruction opcodes: term kinds as-is, bool kinds offset past them, and
// the conjunct exit last.
const (
	boolOpBase = 64
	opExit     = 255 // return false if bool slot x is false
)

type evalInstr struct {
	op     uint8 // Kind, boolOpBase+BoolKind, or opExit
	w      uint8 // result width (terms)
	xw, yw uint8 // operand widths where semantics need them
	lo     uint8 // KExtract
	x, y   int32 // operand slots (term or bool slots, per op)
	dst    int32
	mask   uint64 // Mask(w), precomputed (terms)
}

// CompileBool flattens f for repeated concrete evaluation, binding variable
// names[i] to value slot i of Eval's vector. It panics if f has a free
// variable that names does not list.
func CompileBool(f *Bool, names []string) *CompiledBool {
	c := &evalCompiler{
		out:   &CompiledBool{vmask: make([]uint64, len(names))},
		tslot: map[*Term]int32{},
		bslot: map[*Bool]int32{},
		vslot: make(map[string]int32, len(names)),
		nterm: int32(len(names)),
	}
	for i, n := range names {
		c.vslot[n] = int32(i)
	}
	conj := Conjuncts(f)
	if len(conj) == 0 {
		conj = []*Bool{f} // the constant true
	}
	for i := len(conj) - 1; i > 0; i-- {
		s := c.boolSlot(conj[i])
		c.out.instrs = append(c.out.instrs, evalInstr{op: opExit, x: s})
	}
	c.out.root = c.boolSlot(conj[0])
	c.out.tvals = make([]uint64, c.nterm)
	c.out.bvals = make([]bool, c.nbool)
	// Constant slots are written here once and never touched by Eval (each
	// instruction writes only its own dst), so they stay valid across calls.
	for _, in := range c.tinit {
		c.out.tvals[in.slot] = in.val
	}
	for _, in := range c.binit {
		c.out.bvals[in.slot] = in.val != 0
	}
	return c.out
}

type slotInit struct {
	slot int32
	val  uint64
}

type evalCompiler struct {
	out          *CompiledBool
	tslot        map[*Term]int32
	bslot        map[*Bool]int32
	vslot        map[string]int32
	tinit, binit []slotInit
	nterm, nbool int32
}

func (c *evalCompiler) termSlot(t *Term) int32 {
	if s, ok := c.tslot[t]; ok {
		return s
	}
	switch t.Kind {
	case KVar:
		// Variables occupy the leading slots, in names order.
		s, ok := c.vslot[t.Name]
		if !ok {
			panic(fmt.Sprintf("bv: CompileBool: free variable %q not in names", t.Name))
		}
		c.out.vmask[s] = Mask(t.W)
		c.tslot[t] = s
		return s
	case KZExt:
		// Zero-extension is a no-op on the masked uint64 representation: the
		// operand's slot already holds the zero-extended value, so alias the
		// slot instead of emitting an instruction.
		s := c.termSlot(t.X)
		c.tslot[t] = s
		return s
	case KConst:
		// Constants evaluate to themselves on every call; hoist them into a
		// compile-time slot write instead of re-executing per Eval.
		s := c.nterm
		c.nterm++
		c.tslot[t] = s
		c.tinit = append(c.tinit, slotInit{slot: s, val: t.Val & Mask(t.W)})
		return s
	}
	ins := evalInstr{op: uint8(t.Kind), w: t.W, lo: t.Lo, mask: Mask(t.W)}
	if t.X != nil {
		ins.x = c.termSlot(t.X)
		ins.xw = t.X.W
	}
	if t.Y != nil {
		ins.y = c.termSlot(t.Y)
	}
	s := c.nterm
	c.nterm++
	ins.dst = s
	c.tslot[t] = s
	c.out.instrs = append(c.out.instrs, ins)
	return s
}

func (c *evalCompiler) boolSlot(b *Bool) int32 {
	if s, ok := c.bslot[b]; ok {
		return s
	}
	if b.Kind == BConst {
		s := c.nbool
		c.nbool++
		c.bslot[b] = s
		var v uint64
		if b.BVal {
			v = 1
		}
		c.binit = append(c.binit, slotInit{slot: s, val: v})
		return s
	}
	ins := evalInstr{op: boolOpBase + uint8(b.Kind)}
	if b.X != nil {
		ins.x = c.termSlot(b.X)
		ins.xw = b.X.W
	}
	if b.Y != nil {
		ins.y = c.termSlot(b.Y)
		ins.yw = b.Y.W
	}
	if b.A != nil {
		ins.x = c.boolSlot(b.A)
	}
	if b.B != nil {
		ins.y = c.boolSlot(b.B)
	}
	s := c.nbool
	c.nbool++
	ins.dst = s
	c.bslot[b] = s
	c.out.instrs = append(c.out.instrs, ins)
	return s
}

// Eval evaluates the compiled formula with variable names[i] (CompileBool)
// bound to vals[i]. Values are masked to their variable's width, as
// Assignment.EvalBool masks them. vals must hold one value per name.
func (c *CompiledBool) Eval(vals []uint64) bool {
	tv, bv := c.tvals, c.bvals
	vals = vals[:len(c.vmask)]
	for i, m := range c.vmask {
		tv[i] = vals[i] & m
	}
	for i := range c.instrs {
		ins := &c.instrs[i]
		if ins.op >= boolOpBase {
			if ins.op == opExit {
				if !bv[ins.x] {
					return false
				}
				continue
			}
			var r bool
			switch BoolKind(ins.op - boolOpBase) {
			case BEq:
				r = tv[ins.x] == tv[ins.y]
			case BUlt:
				r = tv[ins.x] < tv[ins.y]
			case BUle:
				r = tv[ins.x] <= tv[ins.y]
			case BSlt:
				r = int64(signExtend(tv[ins.x], ins.xw)) < int64(signExtend(tv[ins.y], ins.yw))
			case BSle:
				r = int64(signExtend(tv[ins.x], ins.xw)) <= int64(signExtend(tv[ins.y], ins.yw))
			case BNot:
				r = !bv[ins.x]
			case BAnd:
				r = bv[ins.x] && bv[ins.y]
			case BOr:
				r = bv[ins.x] || bv[ins.y]
			default:
				panic(fmt.Sprintf("bv: unknown bool kind %d", ins.op-boolOpBase))
			}
			bv[ins.dst] = r
			continue
		}
		var v uint64
		switch Kind(ins.op) {
		case KNot:
			v = ^tv[ins.x]
		case KNeg:
			v = -tv[ins.x]
		case KSExt:
			v = signExtend(tv[ins.x], ins.xw)
		case KExtract:
			v = tv[ins.x] >> ins.lo
		case KAdd:
			v = tv[ins.x] + tv[ins.y]
		case KSub:
			v = tv[ins.x] - tv[ins.y]
		case KMul:
			v = tv[ins.x] * tv[ins.y]
		case KUDiv:
			if tv[ins.y] == 0 {
				v = ins.mask
			} else {
				v = tv[ins.x] / tv[ins.y]
			}
		case KURem:
			if tv[ins.y] == 0 {
				v = tv[ins.x]
			} else {
				v = tv[ins.x] % tv[ins.y]
			}
		case KAnd:
			v = tv[ins.x] & tv[ins.y]
		case KOr:
			v = tv[ins.x] | tv[ins.y]
		case KXor:
			v = tv[ins.x] ^ tv[ins.y]
		case KShl:
			if s := tv[ins.y]; s < uint64(ins.w) {
				v = tv[ins.x] << s
			}
		case KLShr:
			if s := tv[ins.y]; s < uint64(ins.w) {
				v = tv[ins.x] >> s
			}
		case KAShr:
			s := tv[ins.y]
			if s >= uint64(ins.w) {
				s = uint64(ins.w) - 1
			}
			v = uint64(int64(signExtend(tv[ins.x], ins.xw)) >> s)
		default:
			panic(fmt.Sprintf("bv: unknown term kind %d", ins.op))
		}
		tv[ins.dst] = v & ins.mask
	}
	return bv[c.root]
}
