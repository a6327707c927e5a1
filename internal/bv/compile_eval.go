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
// Evaluation is eager (no And/Or short circuit), which is result-identical
// to Assignment.EvalBool on any assignment binding every free variable: all
// operators are total. The only possible error is an unbound variable.
//
// A CompiledBool reuses its internal value slots across Eval calls and is
// therefore not safe for concurrent use; compile one per goroutine.
type CompiledBool struct {
	instrs []evalInstr
	tvals  []uint64
	bvals  []bool
	root   int32 // bool slot holding the result
}

// Instruction opcodes: term kinds as-is, bool kinds offset past them.
const boolOpBase = 64

type evalInstr struct {
	op     uint8 // Kind, or boolOpBase+BoolKind
	w      uint8 // result width (terms)
	xw, yw uint8 // operand widths where semantics need them
	lo     uint8 // KExtract
	x, y   int32 // operand slots (term or bool slots, per op)
	dst    int32
	val    uint64 // KConst / BConst(1 or 0)
	name   string // KVar
}

// CompileBool flattens f for repeated concrete evaluation.
func CompileBool(f *Bool) *CompiledBool {
	c := &evalCompiler{
		out:   &CompiledBool{},
		tslot: map[*Term]int32{},
		bslot: map[*Bool]int32{},
	}
	c.out.root = c.boolSlot(f)
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
	tinit, binit []slotInit
	nterm, nbool int32
}

func (c *evalCompiler) termSlot(t *Term) int32 {
	if s, ok := c.tslot[t]; ok {
		return s
	}
	switch t.Kind {
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
	ins := evalInstr{op: uint8(t.Kind), w: t.W, val: t.Val, name: t.Name, lo: t.Lo}
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
	if b.BVal {
		ins.val = 1
	}
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

// Eval evaluates the compiled formula under the assignment. It returns an
// error iff a free variable is unbound (evaluation is eager, so — unlike
// Assignment.EvalBool — an unbound variable is reported even when a short
// circuit could have skipped it).
func (c *CompiledBool) Eval(asn Assignment) (bool, error) {
	tv, bv := c.tvals, c.bvals
	for i := range c.instrs {
		ins := &c.instrs[i]
		if ins.op >= boolOpBase {
			var r bool
			switch BoolKind(ins.op - boolOpBase) {
			case BConst:
				r = ins.val != 0
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
				return false, fmt.Errorf("bv: unknown bool kind %d", ins.op-boolOpBase)
			}
			bv[ins.dst] = r
			continue
		}
		var v uint64
		switch Kind(ins.op) {
		case KConst:
			v = ins.val
		case KVar:
			bound, ok := asn[ins.name]
			if !ok {
				return false, fmt.Errorf("bv: unbound variable %q", ins.name)
			}
			v = bound
		case KNot:
			v = ^tv[ins.x]
		case KNeg:
			v = -tv[ins.x]
		case KZExt:
			v = tv[ins.x]
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
				v = Mask(ins.w)
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
			return false, fmt.Errorf("bv: unknown term kind %d", ins.op)
		}
		tv[ins.dst] = v & Mask(ins.w)
	}
	return bv[c.root], nil
}
