package bv

import "sort"

// VarSet is the set of free variables of a term or formula, keyed by name.
// All occurrences of a name have a single width (enforced by interning
// discipline in this codebase: a name is always created at one width).
type VarSet map[string]*Term

// Names returns the variable names in sorted order.
func (vs VarSet) Names() []string {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Intersects reports whether vs and other share at least one variable.
func (vs VarSet) Intersects(other VarSet) bool {
	a, b := vs, other
	if len(b) < len(a) {
		a, b = b, a
	}
	for n := range a {
		if _, ok := b[n]; ok {
			return true
		}
	}
	return false
}

// TermVars returns the free variables of t.
func TermVars(t *Term) VarSet {
	vs := make(VarSet)
	collectTermVars(t, vs, make(map[*Term]bool))
	return vs
}

// BoolVars returns the free variables of b.
func BoolVars(b *Bool) VarSet {
	vs := make(VarSet)
	collectBoolVars(b, vs, make(map[*Term]bool))
	return vs
}

func collectTermVars(t *Term, vs VarSet, seen map[*Term]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if t.Kind == KVar {
		vs[t.Name] = t
		return
	}
	collectTermVars(t.X, vs, seen)
	collectTermVars(t.Y, vs, seen)
}

func collectBoolVars(b *Bool, vs VarSet, seen map[*Term]bool) {
	if b == nil {
		return
	}
	switch b.Kind {
	case BEq, BUlt, BUle, BSlt, BSle:
		collectTermVars(b.X, vs, seen)
		collectTermVars(b.Y, vs, seen)
	case BNot:
		collectBoolVars(b.A, vs, seen)
	case BAnd, BOr:
		collectBoolVars(b.A, vs, seen)
		collectBoolVars(b.B, vs, seen)
	}
}

// SubstituteTerm rewrites every variable occurrence in t using repl; variables
// absent from repl are left in place. The rewrite is structure-preserving and
// re-simplifies through the interning constructors.
func SubstituteTerm(t *Term, repl map[string]*Term) *Term {
	s := &substituter{repl: repl, tmemo: make(map[*Term]*Term), bmemo: make(map[*Bool]*Bool)}
	return s.term(t)
}

// SubstituteBool rewrites every variable occurrence in b using repl.
func SubstituteBool(b *Bool, repl map[string]*Term) *Bool {
	s := &substituter{repl: repl, tmemo: make(map[*Term]*Term), bmemo: make(map[*Bool]*Bool)}
	return s.formula(b)
}

type substituter struct {
	repl  map[string]*Term
	tmemo map[*Term]*Term
	bmemo map[*Bool]*Bool
}

func (s *substituter) term(t *Term) *Term {
	if got, ok := s.tmemo[t]; ok {
		return got
	}
	out := s.termUncached(t)
	s.tmemo[t] = out
	return out
}

func (s *substituter) termUncached(t *Term) *Term {
	switch t.Kind {
	case KConst:
		return t
	case KVar:
		if r, ok := s.repl[t.Name]; ok {
			if r.W != t.W {
				panic("bv: substitution width mismatch for " + t.Name)
			}
			return r
		}
		return t
	case KNot:
		return Not(s.term(t.X))
	case KNeg:
		return Neg(s.term(t.X))
	case KAdd:
		return Add(s.term(t.X), s.term(t.Y))
	case KSub:
		return Sub(s.term(t.X), s.term(t.Y))
	case KMul:
		return Mul(s.term(t.X), s.term(t.Y))
	case KUDiv:
		return UDiv(s.term(t.X), s.term(t.Y))
	case KURem:
		return URem(s.term(t.X), s.term(t.Y))
	case KAnd:
		return And(s.term(t.X), s.term(t.Y))
	case KOr:
		return Or(s.term(t.X), s.term(t.Y))
	case KXor:
		return Xor(s.term(t.X), s.term(t.Y))
	case KShl:
		return Shl(s.term(t.X), s.term(t.Y))
	case KLShr:
		return LShr(s.term(t.X), s.term(t.Y))
	case KAShr:
		return AShr(s.term(t.X), s.term(t.Y))
	case KZExt:
		return ZExt(t.W, s.term(t.X))
	case KSExt:
		return SExt(t.W, s.term(t.X))
	case KExtract:
		return Extract(t.Hi, t.Lo, s.term(t.X))
	}
	panic("bv: unknown term kind in substitution")
}

func (s *substituter) formula(b *Bool) *Bool {
	if got, ok := s.bmemo[b]; ok {
		return got
	}
	out := s.formulaUncached(b)
	s.bmemo[b] = out
	return out
}

func (s *substituter) formulaUncached(b *Bool) *Bool {
	switch b.Kind {
	case BConst:
		return b
	case BEq:
		return Eq(s.term(b.X), s.term(b.Y))
	case BUlt:
		return Ult(s.term(b.X), s.term(b.Y))
	case BUle:
		return Ule(s.term(b.X), s.term(b.Y))
	case BSlt:
		return Slt(s.term(b.X), s.term(b.Y))
	case BSle:
		return Sle(s.term(b.X), s.term(b.Y))
	case BNot:
		return NotB(s.formula(b.A))
	case BAnd:
		return AndB(s.formula(b.A), s.formula(b.B))
	case BOr:
		return OrB(s.formula(b.A), s.formula(b.B))
	}
	panic("bv: unknown bool kind in substitution")
}
