// Package sat implements a CDCL (conflict-driven clause learning) boolean
// satisfiability solver in the MiniSat lineage: two-literal watch schemes,
// VSIDS variable activity, phase saving, first-UIP conflict analysis, Luby
// restarts and activity-based learnt-clause reduction.
//
// Together with package bitblast it replaces the Z3 SMT solver the paper
// uses for target-constraint solution (§4.3): bitvector constraints are
// Tseitin-encoded to CNF and decided here. The solver supports randomized
// decision polarity so that repeated solves sample diverse models, which the
// paper's §5.5/§5.6 experiments (200 generated inputs per constraint) need.
//
// Every clause lives in one per-solver arena, a []Lit slab, as a header word
// (its size shifted left by two, a freed bit and a learnt bit), its literals
// and, for a learnt clause, two words holding the bits of its float64
// activity. A clause is named by a cref, the offset of its header. Watch
// lists, per-variable reasons and the learnt list hold crefs, so none of
// them holds a pointer: the garbage collector never scans them and
// propagation writes them without write barriers. Adding a clause appends
// to the arena, and deleting a learnt clause only marks it freed. Once freed
// words exceed half the arena, the solver copies the live clauses, in arena
// order, into a fresh arena and rewrites every cref: in each watch list in
// place, so list order is kept, in the reasons and in the learnt list. The
// search reads crefs only for identity, never for their value, so
// compaction leaves the search trajectory unchanged. A cref is 32 bits, and
// a clause that would place the arena past 2^32 words panics.
package sat

// Var is a variable index, starting at 0.
type Var int32

// Lit is a literal: variable 2*v for the positive literal, 2*v+1 for the
// negation.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// MkLit returns the literal for v, negated if neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)
