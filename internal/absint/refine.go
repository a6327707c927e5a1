package absint

import "diode/internal/lang"

// refineBool meets the state with the assumption that b evaluates to want.
// Only conjunctions of comparisons refine (disjunctions taken true, or
// conjunctions taken false, admit too many shapes); everything unhandled is
// a sound no-op.
func (z *interpreter) refineBool(f *lang.Func, st *state, b lang.BoolExpr, want bool) {
	if st.bot {
		return
	}
	switch x := b.(type) {
	case lang.BoolLit:
		if x.V != want {
			st.bot = true
		}
	case lang.NotE:
		z.refineBool(f, st, x.A, !want)
	case lang.AndE:
		if want {
			z.refineBool(f, st, x.A, true)
			z.refineBool(f, st, x.B, true)
		}
	case lang.OrE:
		if !want {
			z.refineBool(f, st, x.A, false)
			z.refineBool(f, st, x.B, false)
		}
	case lang.Cmp:
		z.refineCmp(f, st, x, want)
	}
}

func (z *interpreter) refineCmp(f *lang.Func, st *state, x lang.Cmp, want bool) {
	op := x.Op
	if !want {
		op = negateCmp(op)
	}
	va := z.eval(f, st, x.A, false)
	vb := z.eval(f, st, x.B, false)
	if va.Bot || vb.Bot {
		st.bot = true
		return
	}
	if va.W == 0 || va.W != vb.W {
		return
	}
	// Signed comparisons refine only when both sides are provably
	// non-negative, where they coincide with their unsigned counterparts.
	switch op {
	case lang.CmpSlt, lang.CmpSle, lang.CmpSgt, lang.CmpSge:
		half := uint64(1) << (va.W - 1)
		if va.Hi >= half || vb.Hi >= half {
			return
		}
		op -= lang.CmpSlt - lang.CmpUlt
	}
	// The mask test (e & m) == k pins known bits of e.
	if op == lang.CmpEq {
		if bin, ok := x.A.(lang.Bin); ok && bin.Op == lang.OpAnd {
			if mlit, ok := bin.B.(lang.Lit); ok {
				if klit, ok := x.B.(lang.Lit); ok {
					km := mlit.V & Mask(mlit.W)
					z.applyRefined(f, st, bin.A, Value{
						W: mlit.W, Hi: Mask(mlit.W),
						KnownMask: km, KnownVal: klit.V & km,
					}.norm())
				}
			}
		}
	}
	ca, cb := refineBounds(op, va, vb)
	z.applyRefined(f, st, x.A, ca)
	z.applyRefined(f, st, x.B, cb)
}

func negateCmp(op lang.CmpOp) lang.CmpOp {
	switch op {
	case lang.CmpEq:
		return lang.CmpNe
	case lang.CmpNe:
		return lang.CmpEq
	case lang.CmpUlt:
		return lang.CmpUge
	case lang.CmpUle:
		return lang.CmpUgt
	case lang.CmpUgt:
		return lang.CmpUle
	case lang.CmpUge:
		return lang.CmpUlt
	case lang.CmpSlt:
		return lang.CmpSge
	case lang.CmpSle:
		return lang.CmpSgt
	case lang.CmpSgt:
		return lang.CmpSle
	default: // CmpSge
		return lang.CmpSlt
	}
}

// refineBounds turns `a op b` (with operand values va, vb of equal known
// width) into interval/known-bits constraints on each side.
func refineBounds(op lang.CmpOp, va, vb Value) (ca, cb Value) {
	m := Mask(va.W)
	ca = Value{W: va.W, Hi: m}
	cb = Value{W: vb.W, Hi: m}
	switch op {
	case lang.CmpEq:
		ca.Lo, ca.Hi = vb.Lo, vb.Hi
		ca.KnownMask, ca.KnownVal = vb.KnownMask, vb.KnownVal
		cb.Lo, cb.Hi = va.Lo, va.Hi
		cb.KnownMask, cb.KnownVal = va.KnownMask, va.KnownVal
	case lang.CmpNe:
		// Only a singleton on one side shrinks the other side, and only at
		// its endpoints.
		if vb.Lo == vb.Hi {
			if va.Lo == va.Hi && va.Lo == vb.Lo {
				return bottom(), bottom()
			}
			if vb.Lo == va.Lo {
				ca.Lo = va.Lo + 1
			}
			if vb.Lo == va.Hi {
				ca.Hi = va.Hi - 1
			}
		}
		if va.Lo == va.Hi && vb.Lo < vb.Hi {
			if va.Lo == vb.Lo {
				cb.Lo = vb.Lo + 1
			}
			if va.Lo == vb.Hi {
				cb.Hi = vb.Hi - 1
			}
		}
	case lang.CmpUlt:
		if vb.Hi == 0 || va.Lo == m {
			return bottom(), bottom()
		}
		ca.Hi = vb.Hi - 1
		cb.Lo = va.Lo + 1
	case lang.CmpUle:
		ca.Hi = vb.Hi
		cb.Lo = va.Lo
	case lang.CmpUgt:
		if vb.Lo == m || va.Hi == 0 {
			return bottom(), bottom()
		}
		ca.Lo = vb.Lo + 1
		cb.Hi = va.Hi - 1
	case lang.CmpUge:
		ca.Lo = vb.Lo
		cb.Hi = va.Hi
	}
	return ca.norm(), cb.norm()
}

// applyRefined meets a constraint into the storage location behind an
// expression: variables directly, and through value-preserving widening
// conversions (where the inner value equals the outer one).
func (z *interpreter) applyRefined(f *lang.Func, st *state, e lang.Expr, c Value) {
	if st.bot {
		return
	}
	if c.Bot {
		st.bot = true
		return
	}
	switch t := e.(type) {
	case lang.VarRef:
		slot, global := f.Slot(t.Name)
		if global || !st.set[slot] {
			// Globals are flow-insensitive, and a never-assigned slot
			// has no value to narrow: no local meet.
			return
		}
		nv := st.vals[slot].meet(c)
		if nv.Bot {
			st.bot = true
			return
		}
		st.vals[slot] = nv
	case lang.Cvt:
		inner := z.eval(f, st, t.A, false)
		if inner.Bot || inner.W == 0 || t.W < inner.W {
			return
		}
		if t.Signed && inner.Hi >= uint64(1)<<(inner.W-1) {
			return // sign extension may change the value
		}
		im := Mask(inner.W)
		// The outer value is exactly the inner one: drop the constraint's
		// bits above the inner width and clamp the interval.
		ic := Value{
			W: inner.W, Lo: c.Lo, Hi: min(c.Hi, im),
			KnownMask: c.KnownMask & im, KnownVal: c.KnownVal & im,
		}
		if c.Lo > im {
			ic = bottom()
		}
		z.applyRefined(f, st, t.A, ic.norm())
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
