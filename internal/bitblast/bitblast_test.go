package bitblast

import (
	"fmt"
	"math/rand"
	"testing"

	"diode/internal/bv"
	"diode/internal/sat"
)

// solveEq pins the variables of expr to the given assignment, asserts
// expr = want, and reports whether the instance is satisfiable.
func solveEq(t *testing.T, expr *bv.Term, asn bv.Assignment, want uint64) bool {
	t.Helper()
	engine := sat.New(sat.Options{})
	bl := New(engine)
	goal := bv.Eq(expr, bv.Const(expr.W, want))
	vars := bv.BoolVars(goal)
	for name, v := range asn {
		vt := vars[name]
		if vt == nil {
			continue
		}
		bl.Assert(bv.Eq(vt, bv.Const(vt.W, v)))
	}
	bl.Assert(goal)
	return engine.SolveUnderAssumptions(nil) == sat.Sat
}

// TestOpsAgainstEvaluator pins inputs and checks that the circuit forces the
// output the evaluator predicts — and rejects every other output.
func TestOpsAgainstEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []struct {
		name string
		mk   func(x, y *bv.Term) *bv.Term
	}{
		{"add", bv.Add},
		{"sub", bv.Sub},
		{"mul", bv.Mul},
		{"udiv", bv.UDiv},
		{"urem", bv.URem},
		{"and", bv.And},
		{"or", bv.Or},
		{"xor", bv.Xor},
		{"shl", bv.Shl},
		{"lshr", bv.LShr},
		{"ashr", bv.AShr},
	}
	widths := []uint8{3, 8, 13, 16}
	for _, w := range widths {
		x := bv.Var(w, fmt.Sprintf("bb_x%d", w))
		y := bv.Var(w, fmt.Sprintf("bb_y%d", w))
		for _, op := range ops {
			expr := op.mk(x, y)
			for trial := 0; trial < 6; trial++ {
				asn := bv.Assignment{
					x.Name: rng.Uint64() & bv.Mask(w),
					y.Name: rng.Uint64() & bv.Mask(w),
				}
				if op.name == "shl" || op.name == "lshr" || op.name == "ashr" {
					// Mix in-range and out-of-range shift amounts.
					if trial%2 == 0 {
						asn[y.Name] = uint64(rng.Intn(int(w) + 3))
					}
				}
				want, err := asn.Eval(expr)
				if err != nil {
					t.Fatal(err)
				}
				if !solveEq(t, expr, asn, want) {
					t.Fatalf("w=%d %s%v: circuit rejects correct value %#x",
						w, op.name, asn, want)
				}
				wrong := (want + 1) & bv.Mask(w)
				if solveEq(t, expr, asn, wrong) {
					t.Fatalf("w=%d %s%v: circuit accepts wrong value %#x (want %#x)",
						w, op.name, asn, wrong, want)
				}
			}
		}
	}
}

// randomExpr builds a random term over the provided variables.
func randomExpr(rng *rand.Rand, vars []*bv.Term, depth int) *bv.Term {
	w := vars[0].W
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return bv.Const(w, rng.Uint64()&bv.Mask(w))
		}
		return vars[rng.Intn(len(vars))]
	}
	a := randomExpr(rng, vars, depth-1)
	b := randomExpr(rng, vars, depth-1)
	switch rng.Intn(11) {
	case 0:
		return bv.Add(a, b)
	case 1:
		return bv.Sub(a, b)
	case 2:
		return bv.Mul(a, b)
	case 3:
		return bv.And(a, b)
	case 4:
		return bv.Or(a, b)
	case 5:
		return bv.Xor(a, b)
	case 6:
		return bv.Shl(a, b)
	case 7:
		return bv.LShr(a, b)
	case 8:
		return bv.Not(a)
	case 9:
		return bv.Neg(a)
	default:
		if w > 1 {
			hi := uint8(rng.Intn(int(w)-1)) + 1
			return bv.ZExt(w, bv.Extract(hi, 0, a))
		}
		return a
	}
}

// TestRandomExpressionsRoundTrip is the main encoder correctness property:
// for random expression trees and random inputs, the circuit's forced output
// equals the evaluator's, and the negation is unsatisfiable.
func TestRandomExpressionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		w := []uint8{4, 8, 12, 16}[rng.Intn(4)]
		vars := []*bv.Term{
			bv.Var(w, fmt.Sprintf("re_a%d", w)),
			bv.Var(w, fmt.Sprintf("re_b%d", w)),
			bv.Var(w, fmt.Sprintf("re_c%d", w)),
		}
		expr := randomExpr(rng, vars, 4)
		asn := bv.Assignment{}
		for _, v := range vars {
			asn[v.Name] = rng.Uint64() & bv.Mask(w)
		}
		want, err := asn.Eval(expr)
		if err != nil {
			t.Fatal(err)
		}
		engine := sat.New(sat.Options{Seed: int64(trial)})
		bl := New(engine)
		for _, v := range vars {
			bl.Assert(bv.Eq(v, bv.Const(w, asn[v.Name])))
		}
		bl.Assert(bv.Eq(expr, bv.Const(w, want)))
		if engine.SolveUnderAssumptions(nil) != sat.Sat {
			t.Fatalf("trial %d: rejected correct value %#x for %s under %v",
				trial, want, expr, asn)
		}
		engine2 := sat.New(sat.Options{Seed: int64(trial)})
		bl2 := New(engine2)
		for _, v := range vars {
			bl2.Assert(bv.Eq(v, bv.Const(w, asn[v.Name])))
		}
		bl2.Assert(bv.Ne(expr, bv.Const(w, want)))
		if engine2.SolveUnderAssumptions(nil) != sat.Unsat {
			t.Fatalf("trial %d: accepted an incorrect value for %s under %v",
				trial, expr, asn)
		}
	}
}

// TestComparisons cross-checks every comparison circuit against Go semantics.
func TestComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := uint8(8)
	x := bv.Var(w, "cmp_x")
	y := bv.Var(w, "cmp_y")
	cmps := []struct {
		name string
		mk   func(a, b *bv.Term) *bv.Bool
		eval func(a, b uint64) bool
	}{
		{"eq", bv.Eq, func(a, b uint64) bool { return a == b }},
		{"ult", bv.Ult, func(a, b uint64) bool { return a < b }},
		{"ule", bv.Ule, func(a, b uint64) bool { return a <= b }},
		{"slt", bv.Slt, func(a, b uint64) bool { return int8(a) < int8(b) }},
		{"sle", bv.Sle, func(a, b uint64) bool { return int8(a) <= int8(b) }},
	}
	for _, c := range cmps {
		for trial := 0; trial < 24; trial++ {
			a := rng.Uint64() & bv.Mask(w)
			b := rng.Uint64() & bv.Mask(w)
			if trial < 4 {
				b = a // exercise the equal case
			}
			want := c.eval(a, b)
			engine := sat.New(sat.Options{})
			bl := New(engine)
			bl.Assert(bv.Eq(x, bv.Const(w, a)))
			bl.Assert(bv.Eq(y, bv.Const(w, b)))
			formula := c.mk(x, y)
			if !want {
				formula = bv.NotB(formula)
			}
			bl.Assert(formula)
			if engine.SolveUnderAssumptions(nil) != sat.Sat {
				t.Fatalf("%s(%d,%d): expected %v", c.name, a, b, want)
			}
		}
	}
}

// TestSolveForInput runs the solver in the direction DIODE uses it: find an
// input making a condition true, then verify with the evaluator.
func TestSolveForInput(t *testing.T) {
	w8 := bv.Var(8, "sf_w")
	h8 := bv.Var(8, "sf_h")
	size := bv.Mul(bv.ZExt(16, w8), bv.ZExt(16, h8))
	// Find w,h with w*h wrapping 16 bits... impossible: max 255*255 < 2^16.
	over := bv.OverflowCond(size)
	engine := sat.New(sat.Options{})
	bl := New(engine)
	bl.Assert(over)
	if engine.SolveUnderAssumptions(nil) != sat.Unsat {
		t.Fatal("8x8→16 multiply cannot overflow; expected unsat")
	}

	// 16-bit fields into a 16-bit product can overflow; find a witness.
	w16 := bv.Var(16, "sf_w16")
	h16 := bv.Var(16, "sf_h16")
	size16 := bv.Mul(w16, h16)
	over16 := bv.OverflowCond(size16)
	engine2 := sat.New(sat.Options{})
	bl2 := New(engine2)
	bl2.Assert(over16)
	if engine2.SolveUnderAssumptions(nil) != sat.Sat {
		t.Fatal("16-bit multiply overflow should be satisfiable")
	}
	m := bl2.Model()
	ok, err := m.EvalBool(over16)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("model %v does not overflow", m)
	}
}

func TestModelOnlyCoversMentionedVars(t *testing.T) {
	engine := sat.New(sat.Options{})
	bl := New(engine)
	x := bv.Var(8, "mv_x")
	bl.Assert(bv.Eq(x, bv.Const(8, 42)))
	if engine.SolveUnderAssumptions(nil) != sat.Sat {
		t.Fatal("expected sat")
	}
	m := bl.Model()
	if len(m) != 1 || m["mv_x"] != 42 {
		t.Fatalf("model = %v", m)
	}
}

func TestValueAfterSolve(t *testing.T) {
	engine := sat.New(sat.Options{})
	bl := New(engine)
	x := bv.Var(8, "va_x")
	sum := bv.Add(x, bv.Const(8, 10))
	bl.Assert(bv.Eq(sum, bv.Const(8, 17)))
	if engine.SolveUnderAssumptions(nil) != sat.Sat {
		t.Fatal("expected sat")
	}
	if got := bl.Value(sum); got != 17 {
		t.Fatalf("Value(sum) = %d, want 17", got)
	}
	if got := bl.Model()["va_x"]; got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
}

// TestAssertIdempotent checks the incremental-session contract: re-asserting
// an already-asserted formula (or a conjunction over already-encoded
// subterms) adds no variables and no clauses.
func TestAssertIdempotent(t *testing.T) {
	engine := sat.New(sat.Options{})
	bl := New(engine)
	x := bv.Var(32, "ai_x")
	y := bv.Var(32, "ai_y")
	beta := bv.OverflowCond(bv.Mul(x, y))
	if !bl.Assert(beta) {
		t.Fatal("first Assert reported not-new")
	}
	vars, clauses := engine.NumVars(), engine.NumClauses()
	if bl.Assert(beta) {
		t.Fatal("second Assert reported new")
	}
	if engine.NumVars() != vars || engine.NumClauses() != clauses {
		t.Fatalf("re-assert grew the encoding: %d→%d vars, %d→%d clauses",
			vars, engine.NumVars(), clauses, engine.NumClauses())
	}
	// A new constraint over the same shared subterm must reuse its bits: only
	// the comparison circuit is new, far fewer gates than the multiplier.
	grown := engine.NumVars()
	bl.Assert(bv.Ult(bv.Mul(x, y), bv.Const(32, 1000)))
	if added := engine.NumVars() - grown; added > 200 {
		t.Fatalf("shared multiplier re-encoded: %d new vars", added)
	}
	if engine.SolveUnderAssumptions(nil) != sat.Sat {
		t.Fatal("expected sat")
	}
}
