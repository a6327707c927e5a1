// Package bitblast translates bitvector formulas (package bv) into CNF for
// the CDCL solver (package sat) via Tseitin encoding. Together the two
// packages are the repo's replacement for the Z3 SMT solver the paper uses:
// a complete decision procedure for the quantifier-free bitvector constraints
// DIODE produces (target constraints and branch constraints).
//
// The encoding uses the classic circuits: ripple-carry adders, shift-add
// multipliers, restoring dividers, barrel shifters and borrow-chain
// comparators. A gate-level structural hash keeps the CNF small when the same
// subcircuit appears repeatedly (common, because bv terms are hash-consed).
package bitblast

import (
	"diode/internal/bv"
	"diode/internal/sat"
)

// Blaster incrementally encodes formulas into a sat.Solver. It is stateful
// by design: every lowered term and formula is cached under its interned
// pointer (hash-consing makes pointer equality structural equality), and
// every gate under its inputs, so a Blaster that lives
// across many Assert/solve rounds — the incremental-session workload —
// lowers each shared subterm exactly once, no matter how many asserted
// formulas mention it. Assert itself is idempotent: re-asserting a formula
// that is already part of the encoding adds no clauses.
type Blaster struct {
	s        *sat.Solver
	termBits map[*bv.Term][]sat.Lit // interned term → bits, LSB first
	boolLit  map[*bv.Bool]sat.Lit   // interned formula → literal
	asserted map[*bv.Bool]bool      // interned formulas already asserted
	varBits  map[string][]sat.Lit
	varTerm  map[string]*bv.Term
	t, f     sat.Lit // literals fixed to true / false
	gates    map[gateKey]sat.Lit
}

type gateKey struct {
	op   uint8
	a, b sat.Lit
}

const (
	gAnd uint8 = iota
	gXor
)

// New returns a Blaster that adds clauses to s.
func New(s *sat.Solver) *Blaster {
	b := new(Blaster)
	b.Reset(s)
	return b
}

// Reset returns b to the state New(s) gives, encoding into s from its
// next variable on: every cache is emptied, keeping its storage. s is
// normally a solver just Reset, so a recycled blaster and solver encode a
// formula exactly as a fresh pair does.
func (b *Blaster) Reset(s *sat.Solver) {
	b.s = s
	resetMap(&b.termBits)
	resetMap(&b.boolLit)
	resetMap(&b.asserted)
	resetMap(&b.varBits)
	resetMap(&b.varTerm)
	resetMap(&b.gates)
	tv := s.NewVar()
	b.t = sat.PosLit(tv)
	b.f = b.t.Neg()
	s.AddClause(b.t)
}

// resetMap empties *m, or makes it when it is nil.
func resetMap[K comparable, V any](m *map[K]V) {
	if *m == nil {
		*m = make(map[K]V)
		return
	}
	clear(*m)
}

// Assert adds the constraint that formula holds. It reports whether the
// formula was new: asserting a formula a second time is a no-op (the
// constraint is already in force), so callers that grow a conjunction
// incrementally pay only for the conjuncts they have not asserted before.
func (b *Blaster) Assert(formula *bv.Bool) bool {
	if b.asserted[formula] {
		return false
	}
	b.asserted[formula] = true
	l := b.Lit(formula)
	b.s.AddClause(l)
	return true
}

// Lit returns a literal equivalent to the formula.
func (b *Blaster) Lit(formula *bv.Bool) sat.Lit {
	if l, ok := b.boolLit[formula]; ok {
		return l
	}
	l := b.litUncached(formula)
	b.boolLit[formula] = l
	return l
}

func (b *Blaster) litUncached(formula *bv.Bool) sat.Lit {
	switch formula.Kind {
	case bv.BConst:
		if formula.BVal {
			return b.t
		}
		return b.f
	case bv.BEq:
		return b.eq(b.Bits(formula.X), b.Bits(formula.Y))
	case bv.BUlt:
		return b.ult(b.Bits(formula.X), b.Bits(formula.Y))
	case bv.BUle:
		return b.ult(b.Bits(formula.Y), b.Bits(formula.X)).Neg()
	case bv.BSlt:
		return b.slt(b.Bits(formula.X), b.Bits(formula.Y))
	case bv.BSle:
		return b.slt(b.Bits(formula.Y), b.Bits(formula.X)).Neg()
	case bv.BNot:
		return b.Lit(formula.A).Neg()
	case bv.BAnd:
		return b.and(b.Lit(formula.A), b.Lit(formula.B))
	case bv.BOr:
		return b.or(b.Lit(formula.A), b.Lit(formula.B))
	}
	panic("bitblast: unknown bool kind")
}

// Bits returns the literal vector (LSB first) encoding t.
func (b *Blaster) Bits(t *bv.Term) []sat.Lit {
	if bits, ok := b.termBits[t]; ok {
		return bits
	}
	bits := b.bitsUncached(t)
	if len(bits) != int(t.W) {
		panic("bitblast: width mismatch in encoding")
	}
	b.termBits[t] = bits
	return bits
}

func (b *Blaster) bitsUncached(t *bv.Term) []sat.Lit {
	switch t.Kind {
	case bv.KConst:
		bits := make([]sat.Lit, t.W)
		for i := range bits {
			if t.Val>>uint(i)&1 == 1 {
				bits[i] = b.t
			} else {
				bits[i] = b.f
			}
		}
		return bits
	case bv.KVar:
		if bits, ok := b.varBits[t.Name]; ok {
			return bits
		}
		bits := make([]sat.Lit, t.W)
		for i := range bits {
			bits[i] = sat.PosLit(b.s.NewVar())
		}
		b.varBits[t.Name] = bits
		b.varTerm[t.Name] = t
		return bits
	case bv.KNot:
		x := b.Bits(t.X)
		bits := make([]sat.Lit, len(x))
		for i, l := range x {
			bits[i] = l.Neg()
		}
		return bits
	case bv.KNeg:
		x := b.Bits(t.X)
		inv := make([]sat.Lit, len(x))
		for i, l := range x {
			inv[i] = l.Neg()
		}
		sum, _ := b.adder(inv, b.constBits(uint64(0), t.W), b.t)
		return sum
	case bv.KAdd:
		sum, _ := b.adder(b.Bits(t.X), b.Bits(t.Y), b.f)
		return sum
	case bv.KSub:
		y := b.Bits(t.Y)
		inv := make([]sat.Lit, len(y))
		for i, l := range y {
			inv[i] = l.Neg()
		}
		sum, _ := b.adder(b.Bits(t.X), inv, b.t)
		return sum
	case bv.KMul:
		return b.multiplier(b.Bits(t.X), b.Bits(t.Y))
	case bv.KUDiv:
		q, _ := b.divider(b.Bits(t.X), b.Bits(t.Y))
		return q
	case bv.KURem:
		_, r := b.divider(b.Bits(t.X), b.Bits(t.Y))
		return r
	case bv.KAnd:
		return b.bitwise(gAnd, b.Bits(t.X), b.Bits(t.Y))
	case bv.KOr:
		x, y := b.Bits(t.X), b.Bits(t.Y)
		bits := make([]sat.Lit, len(x))
		for i := range x {
			bits[i] = b.or(x[i], y[i])
		}
		return bits
	case bv.KXor:
		return b.bitwise(gXor, b.Bits(t.X), b.Bits(t.Y))
	case bv.KShl:
		return b.shifter(t.X, t.Y, shiftLeft)
	case bv.KLShr:
		return b.shifter(t.X, t.Y, shiftRightLogical)
	case bv.KAShr:
		return b.shifter(t.X, t.Y, shiftRightArith)
	case bv.KZExt:
		x := b.Bits(t.X)
		bits := make([]sat.Lit, t.W)
		copy(bits, x)
		for i := len(x); i < int(t.W); i++ {
			bits[i] = b.f
		}
		return bits
	case bv.KSExt:
		x := b.Bits(t.X)
		bits := make([]sat.Lit, t.W)
		copy(bits, x)
		sign := x[len(x)-1]
		for i := len(x); i < int(t.W); i++ {
			bits[i] = sign
		}
		return bits
	case bv.KExtract:
		x := b.Bits(t.X)
		return append([]sat.Lit(nil), x[t.Lo:t.Hi+1]...)
	}
	panic("bitblast: unknown term kind")
}

func (b *Blaster) constBits(v uint64, w uint8) []sat.Lit {
	bits := make([]sat.Lit, w)
	for i := range bits {
		if v>>uint(i)&1 == 1 {
			bits[i] = b.t
		} else {
			bits[i] = b.f
		}
	}
	return bits
}

// --- gate primitives with constant folding and structural hashing ---

func (b *Blaster) and(a1, a2 sat.Lit) sat.Lit {
	if a1 == b.f || a2 == b.f {
		return b.f
	}
	if a1 == b.t {
		return a2
	}
	if a2 == b.t {
		return a1
	}
	if a1 == a2 {
		return a1
	}
	if a1 == a2.Neg() {
		return b.f
	}
	if a2 < a1 {
		a1, a2 = a2, a1
	}
	key := gateKey{gAnd, a1, a2}
	if g, ok := b.gates[key]; ok {
		return g
	}
	c := sat.PosLit(b.s.NewVar())
	b.s.AddClause(a1.Neg(), a2.Neg(), c)
	b.s.AddClause(a1, c.Neg())
	b.s.AddClause(a2, c.Neg())
	b.gates[key] = c
	return c
}

func (b *Blaster) or(a1, a2 sat.Lit) sat.Lit {
	return b.and(a1.Neg(), a2.Neg()).Neg()
}

func (b *Blaster) xor(a1, a2 sat.Lit) sat.Lit {
	if a1 == b.f {
		return a2
	}
	if a2 == b.f {
		return a1
	}
	if a1 == b.t {
		return a2.Neg()
	}
	if a2 == b.t {
		return a1.Neg()
	}
	if a1 == a2 {
		return b.f
	}
	if a1 == a2.Neg() {
		return b.t
	}
	// Normalize polarity: store gates with both inputs positive-normalized.
	neg := false
	if a1.Sign() {
		a1 = a1.Neg()
		neg = !neg
	}
	if a2.Sign() {
		a2 = a2.Neg()
		neg = !neg
	}
	if a2 < a1 {
		a1, a2 = a2, a1
	}
	key := gateKey{gXor, a1, a2}
	g, ok := b.gates[key]
	if !ok {
		g = sat.PosLit(b.s.NewVar())
		b.s.AddClause(a1.Neg(), a2.Neg(), g.Neg())
		b.s.AddClause(a1, a2, g.Neg())
		b.s.AddClause(a1.Neg(), a2, g)
		b.s.AddClause(a1, a2.Neg(), g)
		b.gates[key] = g
	}
	if neg {
		return g.Neg()
	}
	return g
}

func (b *Blaster) mux(sel, hi, lo sat.Lit) sat.Lit {
	if sel == b.t {
		return hi
	}
	if sel == b.f {
		return lo
	}
	if hi == lo {
		return hi
	}
	return b.or(b.and(sel, hi), b.and(sel.Neg(), lo))
}

// --- word-level circuits ---

// adder returns sum bits and the carry-out of x + y + cin (ripple carry).
func (b *Blaster) adder(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	sum := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		axy := b.xor(x[i], y[i])
		sum[i] = b.xor(axy, c)
		c = b.or(b.and(x[i], y[i]), b.and(c, axy))
	}
	return sum, c
}

func (b *Blaster) bitwise(op uint8, x, y []sat.Lit) []sat.Lit {
	bits := make([]sat.Lit, len(x))
	for i := range x {
		if op == gAnd {
			bits[i] = b.and(x[i], y[i])
		} else {
			bits[i] = b.xor(x[i], y[i])
		}
	}
	return bits
}

// multiplier computes x*y mod 2^w by shift-and-add.
func (b *Blaster) multiplier(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = b.f
	}
	for i := 0; i < w; i++ {
		// addend = (x << i) gated by y[i], restricted to w bits.
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = b.f
			} else {
				addend[j] = b.and(x[j-i], y[i])
			}
		}
		acc, _ = b.adder(acc, addend, b.f)
	}
	return acc
}

// divider returns quotient and remainder of unsigned restoring division,
// with SMT-LIB semantics for division by zero (q = all-ones, r = x).
func (b *Blaster) divider(x, y []sat.Lit) ([]sat.Lit, []sat.Lit) {
	w := len(x)
	q := make([]sat.Lit, w)
	rem := make([]sat.Lit, w)
	for i := range rem {
		rem[i] = b.f
	}
	for i := w - 1; i >= 0; i-- {
		// rem = rem << 1 | x[i]
		rem = append([]sat.Lit{x[i]}, rem[:w-1]...)
		// ge = rem >= y
		ge := b.ult(rem, y).Neg()
		// rem = ge ? rem - y : rem
		inv := make([]sat.Lit, w)
		for j := range y {
			inv[j] = y[j].Neg()
		}
		diff, _ := b.adder(rem, inv, b.t)
		next := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			next[j] = b.mux(ge, diff[j], rem[j])
		}
		rem = next
		q[i] = ge
	}
	// Division by zero fix-up.
	yZero := b.isZero(y)
	for i := 0; i < w; i++ {
		q[i] = b.mux(yZero, b.t, q[i])
		rem[i] = b.mux(yZero, x[i], rem[i])
	}
	return q, rem
}

func (b *Blaster) isZero(x []sat.Lit) sat.Lit {
	any := b.f
	for _, l := range x {
		any = b.or(any, l)
	}
	return any.Neg()
}

// ult: x < y unsigned ⟺ no carry out of x + ~y + 1.
func (b *Blaster) ult(x, y []sat.Lit) sat.Lit {
	inv := make([]sat.Lit, len(y))
	for i, l := range y {
		inv[i] = l.Neg()
	}
	_, cout := b.adder(x, inv, b.t)
	return cout.Neg()
}

func (b *Blaster) slt(x, y []sat.Lit) sat.Lit {
	w := len(x)
	sx, sy := x[w-1], y[w-1]
	diffSign := b.xor(sx, sy)
	// Same sign: unsigned comparison decides. Different sign: x < y iff x
	// is the negative one.
	return b.mux(diffSign, sx, b.ult(x, y))
}

func (b *Blaster) eq(x, y []sat.Lit) sat.Lit {
	acc := b.t
	for i := range x {
		acc = b.and(acc, b.xor(x[i], y[i]).Neg())
	}
	return acc
}

type shiftKind uint8

const (
	shiftLeft shiftKind = iota
	shiftRightLogical
	shiftRightArith
)

// shifter builds a barrel shifter for t.X shifted by t.Y. Shift amounts ≥ w
// produce 0 (logical) or sign fill (arithmetic), matching bv semantics.
func (b *Blaster) shifter(xt, yt *bv.Term, kind shiftKind) []sat.Lit {
	x := b.Bits(xt)
	y := b.Bits(yt)
	w := len(x)
	cur := append([]sat.Lit(nil), x...)
	var fill func() sat.Lit
	switch kind {
	case shiftRightArith:
		sign := x[w-1]
		fill = func() sat.Lit { return sign }
	default:
		fill = func() sat.Lit { return b.f }
	}
	// Stages shift by 2^k for each k where 2^k < w.
	for k := 0; (1 << k) < w; k++ {
		amt := 1 << k
		sel := y[k]
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch kind {
			case shiftLeft:
				if i-amt >= 0 {
					shifted = cur[i-amt]
				} else {
					shifted = b.f
				}
			default:
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = fill()
				}
			}
			next[i] = b.mux(sel, shifted, cur[i])
		}
		cur = next
	}
	// If the shift amount is ≥ w, the result is all fill bits. That happens
	// when any y bit at position k with 2^k ≥ w is set, or (for non-power-of
	// -two widths) when the low bits alone encode a value ≥ w.
	over := b.f
	lowBits := 0
	for k := 0; (1 << k) < w; k++ {
		lowBits = k + 1
	}
	for k := lowBits; k < len(y); k++ {
		over = b.or(over, y[k])
	}
	if w&(w-1) != 0 { // non-power-of-two width: low bits can encode values ≥ w
		cmp := b.ult(y, b.constBits(uint64(w), uint8(len(y))))
		over = b.or(over, cmp.Neg())
	}
	out := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.mux(over, fill(), cur[i])
	}
	return out
}

func (b *Blaster) bitsValue(bits []sat.Lit) uint64 {
	var v uint64
	for i, l := range bits {
		var bit bool
		if l == b.t {
			bit = true
		} else if l == b.f {
			bit = false
		} else {
			bit = b.s.ModelValue(l.Var()) != l.Sign()
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Model extracts the assignment for every bv variable mentioned in asserted
// formulas, reading the sat solver's model.
func (b *Blaster) Model() bv.Assignment {
	m := make(bv.Assignment, len(b.varBits))
	for name, bits := range b.varBits {
		m[name] = b.bitsValue(bits)
	}
	return m
}
