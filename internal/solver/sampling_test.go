package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"diode/internal/bv"
)

// factorCond encodes exact integer factoring — x·y = c with both operands
// zero-extended to 2w bits so the product cannot wrap, and both factors
// nontrivial. Semiprime values of c make this the hardest small formula the
// bit-blaster produces — no propagation shortcut reveals the factors — which
// is what the budget and cancellation tests need: a solve that reliably
// outlives a small conflict budget.
func factorCond(w uint8, c uint64, tag string) *bv.Bool {
	x := bv.Var(w, "fx_"+tag)
	y := bv.Var(w, "fy_"+tag)
	w2 := uint8(2 * w)
	prod := bv.Mul(bv.ZExt(w2, x), bv.ZExt(w2, y))
	return bv.AndB(bv.Eq(prod, bv.Const(w2, c)),
		bv.AndB(bv.Ugt(x, bv.Const(w, 1)), bv.Ugt(y, bv.Const(w, 1))))
}

// sampleWith draws k models with the given strategy on a fresh solver and
// validates every model before returning them.
func sampleWith(t *testing.T, seed int64, strategy Sampling, f *bv.Bool, k int) []bv.Assignment {
	t.Helper()
	s := New(Options{Seed: seed, Mode: ModeSATOnly, Sampling: strategy})
	models, _ := s.NewSession(f).SampleModels(k)
	seen := make(map[string]bool, len(models))
	vars := bv.BoolVars(f)
	for i, m := range models {
		ok, err := m.EvalBool(f)
		if err != nil || !ok {
			t.Fatalf("strategy %v model %d does not satisfy the formula: %v (err %v)", strategy, i, m, err)
		}
		key := assignmentKey(m, vars.Names())
		if seen[key] {
			t.Fatalf("strategy %v returned duplicate model %v", strategy, m)
		}
		seen[key] = true
	}
	return models
}

// TestSamplingStrategyEquivalence is the cross-strategy property test:
// restart sampling and blocking enumeration must return valid, distinct
// models everywhere, and on exhaustible formulas (either strategy certified
// exhaustion by returning fewer than k models) they must agree on the exact
// model count — restart sampling's blocking fallback is what makes its count
// a certificate too.
func TestSamplingStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := bv.Var(8, "eq_x")
	y := bv.Var(8, "eq_y")
	for trial := 0; trial < 25; trial++ {
		var f *bv.Bool
		var k int
		if trial%2 == 0 {
			// Single 8-bit variable: at most 256 models, k pushes past them so
			// both strategies must certify exhaustion.
			f = randCond(rng, []*bv.Term{x})
			k = 300
		} else {
			f = bv.AndB(randCond(rng, []*bv.Term{x, y}), randCond(rng, []*bv.Term{x, y}))
			k = 25
		}
		restart := sampleWith(t, int64(trial), SamplingRestart, f, k)
		blocking := sampleWith(t, int64(trial), SamplingBlocking, f, k)
		if len(restart) < k || len(blocking) < k {
			if len(restart) != len(blocking) {
				t.Fatalf("trial %d: exhaustible formula %v: restart found %d models, blocking %d",
					trial, f, len(restart), len(blocking))
			}
		}
	}
}

// TestSampleModelsDeterministic pins the per-seed purity contract: for a
// fixed seed the model *sequence* (values and order) is identical across
// runs, and a different seed diverges.
func TestSampleModelsDeterministic(t *testing.T) {
	x := bv.Var(16, "det_x")
	f := bv.Ult(bv.Mul(x, bv.Const(16, 2531)), bv.Const(16, 997))
	vars := bv.BoolVars(f)
	render := func(seed int64) []string {
		s := New(Options{Seed: seed, Mode: ModeSATOnly})
		var keys []string
		models, _ := s.NewSession(f).SampleModels(12)
		for _, m := range models {
			keys = append(keys, assignmentKey(m, vars.Names()))
		}
		return keys
	}
	a, b := render(7), render(7)
	if len(a) == 0 {
		t.Fatal("no models sampled")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at model %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := render(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical model sequence")
	}
}

// TestRestartSamplingExhaustionStats is the DuplicateModels regression test:
// on a single-model constraint, restart sampling rediscovers the model until
// the staleness bound trips, counts every rediscovery, and falls back to
// blocking exactly once to certify exhaustion — returning the one model, not
// looping.
func TestRestartSamplingExhaustionStats(t *testing.T) {
	x := bv.Var(8, "ex_x")
	f := bv.Eq(x, bv.Const(8, 42))
	s := New(Options{Seed: 3, Mode: ModeSATOnly})
	models, why := s.NewSession(f).SampleModels(5)
	if len(models) != 1 || models[0]["ex_x"] != 42 || why != Unsat {
		t.Fatalf("sampled %v (%v), want exactly {ex_x:42} (unsat: exhausted)", models, why)
	}
	st := s.Snapshot()
	if st.DuplicateModels != restartSampleStale {
		t.Errorf("DuplicateModels = %d, want %d (staleness bound)", st.DuplicateModels, restartSampleStale)
	}
	if st.BlockingFallbacks != 1 {
		t.Errorf("BlockingFallbacks = %d, want 1", st.BlockingFallbacks)
	}
	if st.RestartSamples != restartSampleStale+1 {
		t.Errorf("RestartSamples = %d, want %d", st.RestartSamples, restartSampleStale+1)
	}

	// Blocking enumeration on the same constraint needs no duplicates at all.
	sb := New(Options{Seed: 3, Mode: ModeSATOnly, Sampling: SamplingBlocking})
	if models, _ := sb.NewSession(f).SampleModels(5); len(models) != 1 {
		t.Fatalf("blocking sampled %d models, want 1", len(models))
	}
	if st := sb.Snapshot(); st.DuplicateModels != 0 {
		t.Errorf("blocking DuplicateModels = %d, want 0", st.DuplicateModels)
	}
}

// TestSampleBudgetOutIsUnknown pins the sampling verdict: a β the engine
// cannot decide within its conflict budget yields no models and Unknown —
// never the Unsat that would label the site unsatisfiable — while a β it
// refutes within the same budget yields Unsat. Both strategies are checked:
// restart sampling stops in its first draw, blocking in its first solve.
func TestSampleBudgetOutIsUnknown(t *testing.T) {
	hard := factorCond(16, 1021*1019, "bo")
	n := bv.Var(8, "bo_n")
	unsat := bv.OverflowCond(bv.Mul(bv.ZExt(32, n), bv.Const(32, 2)))
	for _, strategy := range []Sampling{SamplingRestart, SamplingBlocking} {
		s := New(Options{Seed: 1, Mode: ModeSATOnly, Sampling: strategy, MaxConflicts: 200})
		if models, why := s.NewSession(hard).SampleModels(4); len(models) != 0 || why != Unknown {
			t.Errorf("strategy %v: budget-bound β sampled %d models (%v), want 0 (unknown)", strategy, len(models), why)
		}
		if models, why := s.NewSession(unsat).SampleModels(4); len(models) != 0 || why != Unsat {
			t.Errorf("strategy %v: unsat β sampled %d models (%v), want 0 (unsat)", strategy, len(models), why)
		}
	}
}

// TestUnsatBetaRefutesPastFocusLapse pins the in-draw focus lapse on the
// shape of gifview's unsatisfiable return-offset β: the wraparound of a sum
// of three zero-extended bytes and small constants, which no input reaches.
// Restart sampling's first draw proves it unsatisfiable; with decisions
// focused on the 24 input bits for the whole draw that proof takes about
// 14k conflicts at this seed, while a focus that lapses after
// restartFocusLapse conflicts leaves the activity order a few hundred more
// to finish it.
func TestUnsatBetaRefutesPastFocusLapse(t *testing.T) {
	byteIn := func(name string) *bv.Term { return bv.ZExt(32, bv.Var(8, name)) }
	one := bv.Const(32, 1)
	p := bv.Add(byteIn("gv_a"), bv.Const(32, 0x35))
	p = bv.Add(bv.Add(p, one), byteIn("gv_b"))
	p = bv.Add(bv.Add(p, one), byteIn("gv_c"))
	s := New(Options{Seed: 1})
	if models, why := s.NewSession(bv.OverflowCond(p)).SampleModels(3); len(models) != 0 || why != Unsat {
		t.Fatalf("sampled %d models (%v), want 0 (unsat)", len(models), why)
	}
	if got := s.Snapshot().Conflicts; got > restartFocusLapse+2000 {
		t.Errorf("refutation took %d conflicts, want <= %d", got, restartFocusLapse+2000)
	}
}

// TestStopOnCancelsSolve checks that cancellation reaches CDCL: a 32-bit
// factoring solve with an effectively unbounded conflict budget, stopped
// about 50 ms in through StopOn, returns Unknown well within a second — and
// re-arming with a live context clears the flag, so the same solver decides
// the next formula normally.
func TestStopOnCancelsSolve(t *testing.T) {
	s := New(Options{Seed: 1, Mode: ModeSATOnly, MaxConflicts: 1 << 40})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	release := s.StopOn(ctx)
	start := time.Now()
	_, v := s.NewSession(factorCond(32, 3037000493*2654435761, "st")).Solve()
	elapsed := time.Since(start)
	release()
	if v != Unknown {
		t.Fatalf("stopped solve = %v, want unknown", v)
	}
	if elapsed > time.Second {
		t.Fatalf("stopped solve took %v, want < 1s", elapsed)
	}
	defer s.StopOn(context.Background())()
	if _, v := s.NewSession(factorCond(8, 13*11, "st2")).Solve(); v != Sat {
		t.Fatalf("solve after re-arming = %v, want sat", v)
	}
}
