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

// TestCompiledBoolMatchesEvalBool pins the compiled concrete evaluator to the
// recursive one over random formulas and random total assignments — the
// contract the solver's concrete search depends on for verdict determinism.
func TestCompiledBoolMatchesEvalBool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []*Term{Var(8, "a"), Var(8, "b"), Var(16, "c"), Var(32, "d")}
	for round := 0; round < 300; round++ {
		f := randomFormula(rng, vars, 4)
		ce := CompileBool(f)
		for trial := 0; trial < 20; trial++ {
			asn := Assignment{}
			for _, v := range vars {
				asn[v.Name] = rng.Uint64() & Mask(v.W)
			}
			want, werr := asn.EvalBool(f)
			got, gerr := ce.Eval(asn)
			if werr != nil || gerr != nil {
				t.Fatalf("eval error: %v / %v", werr, gerr)
			}
			if got != want {
				t.Fatalf("round %d: compiled=%v recursive=%v for %s under %v", round, got, want, f, asn)
			}
		}
	}
}

// TestCompiledBoolHoistsConstants pins the compile-time fusions: constant
// terms/bools are written into their slots once at CompileBool time and
// KZExt nodes alias their operand's slot, so none of the three appear in the
// per-Eval instruction stream.
func TestCompiledBoolHoistsConstants(t *testing.T) {
	f := OrB(
		Ult(ZExt(32, Var(8, "x")), Const(32, 10)),
		Eq(Add(ZExt(32, Var(8, "x")), Const(32, 1)), Const(32, 4)),
	)
	ce := CompileBool(f)
	for _, ins := range ce.instrs {
		switch {
		case ins.op == uint8(KConst):
			t.Fatalf("KConst instruction survived compilation: %+v", ins)
		case ins.op == uint8(KZExt):
			t.Fatalf("KZExt instruction survived compilation: %+v", ins)
		}
	}
	for _, x := range []uint64{3, 9, 10, 200} {
		want, _ := (Assignment{"x": x}).EvalBool(f)
		got, err := ce.Eval(Assignment{"x": x})
		if err != nil || got != want {
			t.Fatalf("x=%d: got %v, %v; want %v", x, got, err, want)
		}
	}
	// A constant bool can only reach CompileBool as the whole formula (the
	// combinators fold it away everywhere else); it compiles to zero
	// instructions with the result prewritten into its slot.
	for _, b := range []bool{true, false} {
		cc := CompileBool(BoolConst(b))
		if len(cc.instrs) != 0 {
			t.Fatalf("BoolConst(%v) compiled to %d instructions", b, len(cc.instrs))
		}
		if got, err := cc.Eval(Assignment{}); err != nil || got != b {
			t.Fatalf("BoolConst(%v) evaluated to %v, %v", b, got, err)
		}
	}
}

// TestCompiledBoolUnbound pins the unbound-variable error path.
func TestCompiledBoolUnbound(t *testing.T) {
	f := Ult(ZExt(32, Var(8, "x")), Const(32, 10))
	ce := CompileBool(f)
	if _, err := ce.Eval(Assignment{}); err == nil {
		t.Fatal("expected unbound-variable error")
	}
	ok, err := ce.Eval(Assignment{"x": 3})
	if err != nil || !ok {
		t.Fatalf("got %v, %v", ok, err)
	}
	// Reuse: a second evaluation on the same CompiledBool is independent.
	ok, err = ce.Eval(Assignment{"x": 200})
	if err != nil || ok {
		t.Fatalf("reused eval got %v, %v", ok, err)
	}
}
