package bv

import "fmt"

// Assignment maps variable names to concrete values. Values are interpreted
// at the width of the variable they bind; extra high bits are masked off.
type Assignment map[string]uint64

// Eval evaluates t under the assignment. It returns an error if t mentions a
// variable the assignment does not bind.
func (a Assignment) Eval(t *Term) (uint64, error) {
	e := evaluator{asn: a, tmemo: make(map[*Term]uint64), bmemo: make(map[*Bool]bool)}
	v, err := e.term(t)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// EvalBool evaluates the formula b under the assignment.
func (a Assignment) EvalBool(b *Bool) (bool, error) {
	e := evaluator{asn: a, tmemo: make(map[*Term]uint64), bmemo: make(map[*Bool]bool)}
	return e.formula(b)
}

type evaluator struct {
	asn   Assignment
	tmemo map[*Term]uint64
	bmemo map[*Bool]bool
}

func (e *evaluator) term(t *Term) (uint64, error) {
	if v, ok := e.tmemo[t]; ok {
		return v, nil
	}
	v, err := e.termUncached(t)
	if err != nil {
		return 0, err
	}
	v &= Mask(t.W)
	e.tmemo[t] = v
	return v, nil
}

func (e *evaluator) termUncached(t *Term) (uint64, error) {
	switch t.Kind {
	case KConst:
		return t.Val, nil
	case KVar:
		v, ok := e.asn[t.Name]
		if !ok {
			return 0, fmt.Errorf("bv: unbound variable %q", t.Name)
		}
		return v & Mask(t.W), nil
	}
	x, err := e.term(t.X)
	if err != nil {
		return 0, err
	}
	switch t.Kind {
	case KNot:
		return ^x, nil
	case KNeg:
		return -x, nil
	case KZExt:
		return x, nil
	case KSExt:
		return signExtend(x, t.X.W), nil
	case KExtract:
		return x >> t.Lo, nil
	}
	y, err := e.term(t.Y)
	if err != nil {
		return 0, err
	}
	switch t.Kind {
	case KAdd:
		return x + y, nil
	case KSub:
		return x - y, nil
	case KMul:
		return x * y, nil
	case KUDiv:
		if y == 0 {
			return Mask(t.W), nil
		}
		return x / y, nil
	case KURem:
		if y == 0 {
			return x, nil
		}
		return x % y, nil
	case KAnd:
		return x & y, nil
	case KOr:
		return x | y, nil
	case KXor:
		return x ^ y, nil
	case KShl:
		if y >= uint64(t.W) {
			return 0, nil
		}
		return x << y, nil
	case KLShr:
		if y >= uint64(t.W) {
			return 0, nil
		}
		return x >> y, nil
	case KAShr:
		s := y
		if s >= uint64(t.W) {
			s = uint64(t.W) - 1
		}
		return uint64(int64(signExtend(x, t.X.W)) >> s), nil
	}
	return 0, fmt.Errorf("bv: unknown term kind %d", t.Kind)
}

func (e *evaluator) formula(b *Bool) (bool, error) {
	if v, ok := e.bmemo[b]; ok {
		return v, nil
	}
	v, err := e.formulaUncached(b)
	if err != nil {
		return false, err
	}
	e.bmemo[b] = v
	return v, nil
}

func (e *evaluator) formulaUncached(b *Bool) (bool, error) {
	switch b.Kind {
	case BConst:
		return b.BVal, nil
	case BEq, BUlt, BUle, BSlt, BSle:
		x, err := e.term(b.X)
		if err != nil {
			return false, err
		}
		y, err := e.term(b.Y)
		if err != nil {
			return false, err
		}
		switch b.Kind {
		case BEq:
			return x == y, nil
		case BUlt:
			return x < y, nil
		case BUle:
			return x <= y, nil
		case BSlt:
			return int64(signExtend(x, b.X.W)) < int64(signExtend(y, b.Y.W)), nil
		default: // BSle
			return int64(signExtend(x, b.X.W)) <= int64(signExtend(y, b.Y.W)), nil
		}
	case BNot:
		v, err := e.formula(b.A)
		if err != nil {
			return false, err
		}
		return !v, nil
	case BAnd:
		av, err := e.formula(b.A)
		if err != nil {
			return false, err
		}
		if !av {
			return false, nil
		}
		return e.formula(b.B)
	case BOr:
		av, err := e.formula(b.A)
		if err != nil {
			return false, err
		}
		if av {
			return true, nil
		}
		return e.formula(b.B)
	}
	return false, fmt.Errorf("bv: unknown bool kind %d", b.Kind)
}
