package bv

import "sort"

// VarSet is the set of free variables of a formula, keyed by name.
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
