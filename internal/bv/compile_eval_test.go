package bv

import (
	"math/rand"
	"testing"
)

// randomFormula builds a random formula over the given variables, exercising
// every term and bool constructor (the constructors' own constant folding and
// canonicalization included).
func randomFormula(rng *rand.Rand, vars []*Term, depth int) *Bool {
	t := func() *Term { return randomTerm(rng, vars, depth) }
	switch rng.Intn(8) {
	case 0:
		return Eq(t(), t())
	case 1:
		return Ult(t(), t())
	case 2:
		return Ule(t(), t())
	case 3:
		return Slt(t(), t())
	case 4:
		return Sle(t(), t())
	case 5:
		if depth <= 0 {
			return BoolConst(rng.Intn(2) == 0)
		}
		return NotB(randomFormula(rng, vars, depth-1))
	case 6:
		if depth <= 0 {
			return Ugt(t(), t())
		}
		return AndB(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	default:
		if depth <= 0 {
			return Uge(t(), t())
		}
		return OrB(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	}
}

func randomTerm(rng *rand.Rand, vars []*Term, depth int) *Term {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return Const(32, rng.Uint64())
		}
		v := vars[rng.Intn(len(vars))]
		return ZExt(32, v)
	}
	x := randomTerm(rng, vars, depth-1)
	y := randomTerm(rng, vars, depth-1)
	switch rng.Intn(13) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	case 2:
		return Mul(x, y)
	case 3:
		return UDiv(x, y)
	case 4:
		return URem(x, y)
	case 5:
		return And(x, y)
	case 6:
		return Or(x, y)
	case 7:
		return Xor(x, y)
	case 8:
		return Shl(x, y)
	case 9:
		return LShr(x, y)
	case 10:
		return AShr(x, y)
	case 11:
		return Not(x)
	default:
		return Neg(x)
	}
}

// randomConjunction conjoins one to four random formulas, so the compiled
// form carries conjunct exits.
func randomConjunction(rng *rand.Rand, vars []*Term) *Bool {
	f := randomFormula(rng, vars, 3)
	for n := rng.Intn(4); n > 0; n-- {
		f = AndB(f, randomFormula(rng, vars, 3))
	}
	return f
}

// checkCompiledAgrees evaluates f compiled over vars and recursively under
// the same values (drawn with stray high bits, which both must mask off) and
// reports a mismatch.
func checkCompiledAgrees(t *testing.T, rng *rand.Rand, f *Bool, vars []*Term, ce *CompiledBool) {
	t.Helper()
	vals := make([]uint64, len(vars))
	asn := Assignment{}
	for i, v := range vars {
		vals[i] = rng.Uint64()
		if rng.Intn(2) == 0 {
			vals[i] &= Mask(v.W)
		}
		asn[v.Name] = vals[i]
	}
	want, err := asn.EvalBool(f)
	if err != nil {
		t.Fatalf("recursive eval error: %v", err)
	}
	if got := ce.Eval(vals); got != want {
		t.Fatalf("compiled=%v recursive=%v for %s under %v", got, want, f, asn)
	}
}

func varNames(vars []*Term) []string {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.Name
	}
	return names
}

// TestCompiledBoolMatchesEvalBool pins the compiled concrete evaluator to the
// recursive one over random conjunctions and random total assignments — the
// contract the solver's concrete search depends on for verdict determinism.
func TestCompiledBoolMatchesEvalBool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []*Term{Var(8, "a"), Var(8, "b"), Var(16, "c"), Var(32, "d")}
	names := varNames(vars)
	for round := 0; round < 300; round++ {
		f := randomConjunction(rng, vars)
		ce := CompileBool(f, names)
		for trial := 0; trial < 20; trial++ {
			checkCompiledAgrees(t, rng, f, vars, ce)
		}
	}
}

// TestCompiledBoolConjunctExits pins the newest-first early exit on a
// three-conjunct formula: conjuncts are evaluated in reverse Conjuncts order
// with an exit after each but the last, and every combination of true and
// false conjuncts gives the recursive evaluator's answer.
func TestCompiledBoolConjunctExits(t *testing.T) {
	x, y := Var(8, "x"), Var(8, "y")
	c1 := Ult(x, Const(8, 100))                // oldest
	c2 := Eq(And(y, Const(8, 1)), Const(8, 0)) // y even
	c3 := Ugt(Add(x, y), Const(8, 50))         // newest
	f := AndB(AndB(c1, c2), c3)
	ce := CompileBool(f, []string{"x", "y"})
	var exits []int
	for i, ins := range ce.instrs {
		if ins.op == opExit {
			exits = append(exits, i)
		}
	}
	if len(exits) != 2 {
		t.Fatalf("got %d exit instructions, want 2: %+v", len(exits), ce.instrs)
	}
	// The first instructions compute the newest conjunct: x+y, then the
	// comparison the first exit tests.
	if ce.instrs[0].op != uint8(KAdd) || ce.instrs[exits[0]].x != ce.instrs[exits[0]-1].dst {
		t.Fatalf("newest conjunct not compiled first: %+v", ce.instrs)
	}
	for xv := uint64(0); xv < 256; xv += 7 {
		for yv := uint64(0); yv < 256; yv += 5 {
			want, _ := (Assignment{"x": xv, "y": yv}).EvalBool(f)
			if got := ce.Eval([]uint64{xv, yv}); got != want {
				t.Fatalf("x=%d y=%d: compiled=%v recursive=%v", xv, yv, got, want)
			}
		}
	}
}

// TestCompiledBoolHoistsConstants pins the compile-time fusions: constant
// terms/bools are written into their slots once at CompileBool time, KZExt
// nodes alias their operand's slot and variables are bound to the leading
// slots, so none of the four appear in the per-Eval instruction stream.
func TestCompiledBoolHoistsConstants(t *testing.T) {
	f := OrB(
		Ult(ZExt(32, Var(8, "x")), Const(32, 10)),
		Eq(Add(ZExt(32, Var(8, "x")), Const(32, 1)), Const(32, 4)),
	)
	ce := CompileBool(f, []string{"x"})
	for _, ins := range ce.instrs {
		switch {
		case ins.op == uint8(KConst):
			t.Fatalf("KConst instruction survived compilation: %+v", ins)
		case ins.op == uint8(KZExt):
			t.Fatalf("KZExt instruction survived compilation: %+v", ins)
		case ins.op == uint8(KVar):
			t.Fatalf("KVar instruction survived compilation: %+v", ins)
		}
	}
	for _, x := range []uint64{3, 9, 10, 200} {
		want, _ := (Assignment{"x": x}).EvalBool(f)
		if got := ce.Eval([]uint64{x}); got != want {
			t.Fatalf("x=%d: got %v; want %v", x, got, want)
		}
	}
	// A constant bool can only reach CompileBool as the whole formula (the
	// combinators fold it away everywhere else); it compiles to zero
	// instructions with the result prewritten into its slot.
	for _, b := range []bool{true, false} {
		cc := CompileBool(BoolConst(b), nil)
		if len(cc.instrs) != 0 {
			t.Fatalf("BoolConst(%v) compiled to %d instructions", b, len(cc.instrs))
		}
		if got := cc.Eval(nil); got != b {
			t.Fatalf("BoolConst(%v) evaluated to %v", b, got)
		}
	}
}

// TestCompileBoolMissingVariablePanics pins the compile-time check that
// replaced the unbound-variable error: a free variable the names do not list
// has no slot, and CompileBool refuses the formula.
func TestCompileBoolMissingVariablePanics(t *testing.T) {
	f := AndB(Ult(ZExt(32, Var(8, "x")), Const(32, 10)), Ugt(Var(8, "y"), Const(8, 3)))
	defer func() {
		if recover() == nil {
			t.Fatal("CompileBool accepted a formula with a variable missing from names")
		}
	}()
	CompileBool(f, []string{"x"})
}

// FuzzCompiledBool turns the fuzzer's input into the seed of a random
// conjunction and a random assignment and asserts that the compiled
// evaluator agrees with Assignment.EvalBool.
func FuzzCompiledBool(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3} {
		f.Add(seed)
	}
	vars := []*Term{Var(8, "fa"), Var(8, "fb"), Var(16, "fc"), Var(32, "fd")}
	names := varNames(vars)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := randomConjunction(rng, vars)
		checkCompiledAgrees(t, rng, g, vars, CompileBool(g, names))
	})
}
