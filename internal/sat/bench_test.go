package sat

import (
	"math/rand"
	"testing"
)

// gateStream emits the CNF a bit-blaster produces for a w×w shift-and-add
// multiplier over fresh input variables: an AND gate (one ternary and two
// binary clauses) per partial-product bit and a ripple-carry adder (two
// four-clause XOR gates and three AND gates per bit) per row. It returns
// the input and product literals.
func gateStream(s *Solver, w int) (x, y, prod []Lit) {
	and := func(a, b Lit) Lit {
		c := PosLit(s.NewVar())
		s.AddClause(a.Neg(), b.Neg(), c)
		s.AddClause(a, c.Neg())
		s.AddClause(b, c.Neg())
		return c
	}
	xor := func(a, b Lit) Lit {
		g := PosLit(s.NewVar())
		s.AddClause(a.Neg(), b.Neg(), g.Neg())
		s.AddClause(a, b, g.Neg())
		s.AddClause(a.Neg(), b, g)
		s.AddClause(a, b.Neg(), g)
		return g
	}
	x, y = make([]Lit, w), make([]Lit, w)
	for i := range x {
		x[i], y[i] = PosLit(s.NewVar()), PosLit(s.NewVar())
	}
	acc := make([]Lit, w)
	for j := range acc {
		acc[j] = and(x[j], y[0])
	}
	for i := 1; i < w; i++ {
		c := LitUndef
		for j := i; j < w; j++ {
			a, p := acc[j], and(x[j-i], y[i])
			axy := xor(a, p)
			if c == LitUndef {
				acc[j], c = axy, and(a, p)
				continue
			}
			acc[j] = xor(axy, c)
			c = and(and(a, p).Neg(), and(c, axy).Neg()).Neg()
		}
	}
	return x, y, acc
}

// BenchmarkAddClauseMultiplier measures clause intake: one op builds a
// fresh solver and adds the CNF of a 32-bit multiplier, the largest circuit
// a β constraint blasts.
func BenchmarkAddClauseMultiplier(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gateStream(New(Options{}), 32)
	}
}

// BenchmarkAssumptionSolves measures the incremental loop: one persistent
// solver holds a 16-bit multiplier, and each op solves it under a fresh set
// of assumptions fixing a few input and product bits, keeping its learnts
// across ops as the enforcement loop does.
func BenchmarkAssumptionSolves(b *testing.B) {
	s := New(Options{Seed: 1, RandomPolarity: 0.02})
	x, y, prod := gateStream(s, 16)
	rng := rand.New(rand.NewSource(1))
	assumps := make([]Lit, 0, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assumps = assumps[:0]
		for k := 0; k < 4; k++ {
			assumps = append(assumps, prod[rng.Intn(len(prod))]^Lit(rng.Intn(2)))
		}
		for k := 0; k < 4; k++ {
			assumps = append(assumps, x[rng.Intn(len(x))]^Lit(rng.Intn(2)), y[rng.Intn(len(y))]^Lit(rng.Intn(2)))
		}
		s.SolveUnderAssumptions(assumps)
	}
}
