package solver

import (
	"math/rand"
	"testing"

	"diode/internal/bv"
)

// referenceTry is one try of the map-based concrete loop the sampler
// replaced: one randomValue per variable in sorted-name order into a fresh
// Assignment, evaluated recursively.
func referenceTry(rng *rand.Rand, f *bv.Bool, vars bv.VarSet) bv.Assignment {
	m := make(bv.Assignment, len(vars))
	for _, n := range vars.Names() {
		m[n] = randomValue(rng, vars[n].W)
	}
	if ok, err := m.EvalBool(f); err == nil && ok {
		return m
	}
	return nil
}

// referenceSearch is concreteSearch's reference: the first of up to
// concreteTriesPerSolve reference tries that satisfies f.
func referenceSearch(rng *rand.Rand, f *bv.Bool, vars bv.VarSet) bv.Assignment {
	for i := 0; i < concreteTriesPerSolve; i++ {
		if m := referenceTry(rng, f, vars); m != nil {
			return m
		}
	}
	return nil
}

// referencePhase is concretePhase's reference: reference tries until k
// distinct models are found or the phase budget is spent.
func referencePhase(rng *rand.Rand, f *bv.Bool, vars bv.VarSet, k int) []bv.Assignment {
	ms := newModelSet(vars.Names())
	for i := 0; i < concreteTriesPerSolve*4 && len(ms.models) < k; i++ {
		if m := referenceTry(rng, f, vars); m != nil {
			ms.add(m)
		}
	}
	return ms.models
}

// diffFormula builds a random multi-conjunct formula of one of three shapes:
// dense (wide comparisons most draws satisfy), sparse (byte equalities a
// few draws in thousands satisfy) and unsatisfiable (a contradictory pair
// behind satisfiable conjuncts).
func diffFormula(rng *rand.Rand, shape int) *bv.Bool {
	a, b := bv.Var(8, "df_a"), bv.Var(8, "df_b")
	c, d := bv.Var(16, "df_c"), bv.Var(32, "df_d")
	wide := bv.Add(bv.ZExt(32, c), d)
	f := randCond(rng, []*bv.Term{a, b})
	switch shape {
	case 0:
		f = bv.AndB(f, bv.Ugt(wide, bv.Const(32, rng.Uint64()>>34)))
		f = bv.AndB(f, bv.Ule(bv.ZExt(16, b), c))
	case 1:
		f = bv.AndB(f, bv.Eq(bv.Xor(a, b), bv.Const(8, uint64(rng.Intn(256)))))
		f = bv.AndB(f, bv.Ult(bv.Extract(15, 8, c), bv.Const(8, uint64(1+rng.Intn(4)))))
	default:
		k := bv.Const(32, uint64(rng.Intn(1<<20)))
		f = bv.AndB(f, bv.Ult(wide, k))
		f = bv.AndB(f, bv.Ugt(bv.ZExt(16, a), c))
		f = bv.AndB(f, bv.Ugt(wide, k))
	}
	return f
}

func sameModel(a, b bv.Assignment, names []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	return a == nil || assignmentKey(a, names) == assignmentKey(b, names)
}

// TestConcreteSearchMatchesReference is the differential test against the
// map-based loop: over dense, sparse and unsatisfiable conjunctions and
// seeds 1–50, concreteSearch and concretePhase return exactly the
// reference's models (or its nil) and leave the random stream where the
// reference leaves it — the draw sequence did not move.
func TestConcreteSearchMatchesReference(t *testing.T) {
	s := New(Options{})
	hits := map[int]int{}
	for seed := int64(1); seed <= 50; seed++ {
		frng := rand.New(rand.NewSource(seed))
		for shape := 0; shape < 3; shape++ {
			f := diffFormula(frng, shape)
			if f.Kind == bv.BConst {
				continue
			}
			vars := bv.BoolVars(f)
			names := vars.Names()

			ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := referenceSearch(ref, f, vars)
			m := concreteSearch(got, f, names, vars)
			if !sameModel(m, want, names) {
				t.Fatalf("seed %d shape %d: concreteSearch = %v, reference %v for %s", seed, shape, m, want, f)
			}
			if m != nil {
				hits[shape]++
			}
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d shape %d: concreteSearch moved the draw sequence", seed, shape)
			}

			// k cycles through 1–5: k = 1 stops at the first hit, larger k
			// collects distinct models past duplicates.
			k := 1 + int(seed%5)
			ref, got = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			models := referencePhase(ref, f, vars, k)
			ms := newModelSet(names)
			s.concretePhase(got, f, vars, ms, k)
			if len(ms.models) != len(models) {
				t.Fatalf("seed %d shape %d k=%d: concretePhase found %d models, reference %d", seed, shape, k, len(ms.models), len(models))
			}
			for i := range models {
				if !sameModel(ms.models[i], models[i], names) {
					t.Fatalf("seed %d shape %d k=%d: model %d = %v, reference %v", seed, shape, k, i, ms.models[i], models[i])
				}
			}
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d shape %d k=%d: concretePhase moved the draw sequence", seed, shape, k)
			}
		}
	}
	// The shapes must actually exercise both outcomes.
	if hits[0] == 0 || hits[1] == 0 || hits[2] != 0 {
		t.Fatalf("shape hit counts %v: want dense and sparse hits, no unsatisfiable hits", hits)
	}
}

// wrapFormula is the dominant failing shape of the arith-surface warm-up: a
// four-byte little-endian field x with an x + C < x wrap conjunct, asserted
// last, and a branch conjunct on the low byte. The wrap needs the low byte
// at 0xc0 or above and the branch forbids it, so every try fails.
func wrapFormula() *bv.Bool {
	var x *bv.Term
	for i := 0; i < 4; i++ {
		b := bv.ZExt(32, bv.Var(8, "wrap_b"+string(rune('0'+i))))
		if i > 0 {
			b = bv.Shl(b, bv.Const(32, uint64(8*i)))
			x = bv.Or(x, b)
		} else {
			x = b
		}
	}
	branch := bv.Ult(bv.Var(8, "wrap_b0"), bv.Const(8, 0x80))
	return bv.AndB(branch, bv.Ult(bv.Add(x, bv.Const(32, 0x40)), x))
}

// TestConcreteTryAllocFree pins the map-free loop: a failing try draws,
// evaluates and returns without allocating.
func TestConcreteTryAllocFree(t *testing.T) {
	x := bv.Var(16, "af_x")
	f := bv.AndB(bv.Ult(x, bv.Const(16, 100)), bv.Ugt(x, bv.Const(16, 200)))
	if f.Kind == bv.BConst {
		t.Fatal("formula folded to a constant")
	}
	vars := bv.BoolVars(f)
	sp := newSampler(f, vars.Names(), vars)
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(1000, func() {
		if sp.try(rng) != nil {
			t.Fatal("unsatisfiable formula hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("failing try allocates %.1f times", allocs)
	}
}

// BenchmarkConcreteSearch reports the per-try cost of a full concrete search
// on the four-byte wrap shape, which fails all concreteTriesPerSolve tries.
func BenchmarkConcreteSearch(b *testing.B) {
	f := wrapFormula()
	vars := bv.BoolVars(f)
	names := vars.Names()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if concreteSearch(rng, f, names, vars) != nil {
			b.Fatal("wrap shape hit")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*concreteTriesPerSolve), "ns/try")
}
