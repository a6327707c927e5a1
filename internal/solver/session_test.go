package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"diode/internal/bv"
)

// randCond generates a random 8-bit constraint over the given variables —
// comparisons over small arithmetic terms, the shape of lifted branch
// conditions.
func randCond(rng *rand.Rand, vars []*bv.Term) *bv.Bool {
	x := vars[rng.Intn(len(vars))]
	y := vars[rng.Intn(len(vars))]
	c := bv.Const(8, uint64(rng.Intn(256)))
	var t *bv.Term
	switch rng.Intn(5) {
	case 0:
		t = bv.Add(x, y)
	case 1:
		t = bv.Mul(x, c)
	case 2:
		t = bv.Xor(x, y)
	case 3:
		t = bv.Sub(x, y)
	default:
		t = x
	}
	switch rng.Intn(4) {
	case 0:
		return bv.Ult(t, c)
	case 1:
		return bv.Ugt(t, c)
	case 2:
		return bv.Eq(bv.And(t, bv.Const(8, 7)), bv.Const(8, uint64(rng.Intn(8))))
	default:
		return bv.Sle(t, c)
	}
}

// TestSessionMatchesOneShot grows random conjunctions constraint by
// constraint and checks, at every step, that session-based Assert+Solve
// agrees with a Solve of the whole rebuilt conjunction on a fresh Solver,
// which runs it on a new session with nothing retained. ModeSATOnly
// forces every solve through the persistent CDCL engine, so retained learned
// clauses, hash-consed re-encoding and assumption plumbing are all on the
// hot path; the hybrid round covers the concrete phase and model cache.
func TestSessionMatchesOneShot(t *testing.T) {
	for _, mode := range []Mode{ModeSATOnly, ModeHybrid} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 40; trial++ {
				vars := []*bv.Term{
					bv.Var(8, "se_a"), bv.Var(8, "se_b"), bv.Var(8, "se_c"),
				}
				n := 1 + rng.Intn(5)
				conds := make([]*bv.Bool, n)
				for i := range conds {
					conds[i] = randCond(rng, vars)
				}
				sess := New(Options{Seed: int64(trial), Mode: mode}).NewSession(conds[0])
				ref := New(Options{Seed: int64(1000 + trial), Mode: mode})
				cur := conds[0]
				for i := 0; i < n; i++ {
					if i > 0 {
						sess.Assert(conds[i])
						cur = bv.AndB(cur, conds[i])
					}
					m, v := sess.Solve()
					_, want := ref.Solve(cur)
					if v != want {
						t.Fatalf("trial %d step %d: session %v, fresh solve %v\nconstraint: %v",
							trial, i, v, want, cur)
					}
					if v == Sat {
						if ok, err := m.EvalBool(cur); err != nil || !ok {
							t.Fatalf("trial %d step %d: session model %v does not satisfy constraint (%v)",
								trial, i, m, err)
						}
					}
					if v == Unsat {
						break
					}
				}
			}
		})
	}
}

// TestSessionModelCache pins the reuse rule: a model returned before the
// conjunction grew is handed back once it re-validates against the extended
// conjunction, and re-solving an *unchanged* conjunction never replays the
// cache (the Figure 7 crashed-early case needs a fresh model).
func TestSessionModelCache(t *testing.T) {
	s := New(Options{Seed: 5})
	x := bv.Var(32, "mc_x")
	sess := s.NewSession(bv.Ugt(x, bv.Const(32, 100)))
	m1, v := sess.Solve()
	if v != Sat {
		t.Fatalf("initial solve: %v", v)
	}
	if hits := s.Snapshot().ModelCacheHits; hits != 0 {
		t.Fatalf("cache hit before the conjunction ever grew: %d", hits)
	}
	// Grow with a constraint m1 trivially satisfies.
	sess.Assert(bv.Ugt(x, bv.Const(32, 50)))
	m2, v := sess.Solve()
	if v != Sat {
		t.Fatalf("extended solve: %v", v)
	}
	if s.Snapshot().ModelCacheHits != 1 {
		t.Fatalf("extended solve should be a cache hit, stats %+v", s.Snapshot())
	}
	if m2["mc_x"] != m1["mc_x"] {
		t.Fatalf("cache hit returned a different model: %v vs %v", m2, m1)
	}
	// Unchanged conjunction: must NOT replay the cached model path.
	if _, v := sess.Solve(); v != Sat {
		t.Fatalf("re-solve: %v", v)
	}
	if s.Snapshot().ModelCacheHits != 1 {
		t.Fatalf("re-solve of unchanged conjunction replayed the cache, stats %+v", s.Snapshot())
	}
}

// TestSessionMonotonicUnsat: once the conjunction is unsatisfiable it stays
// so, and the session answers cheaply without poisoning the parent solver.
func TestSessionMonotonicUnsat(t *testing.T) {
	s := New(Options{Seed: 6})
	x := bv.Var(8, "mu_x")
	sess := s.NewSession(bv.Ult(x, bv.Const(8, 10)))
	if _, v := sess.Solve(); v != Sat {
		t.Fatalf("satisfiable start: %v", v)
	}
	sess.Assert(bv.Ugt(x, bv.Const(8, 20)))
	if _, v := sess.Solve(); v != Unsat {
		t.Fatal("contradiction not detected")
	}
	sess.Assert(bv.Ult(x, bv.Const(8, 5)))
	if _, v := sess.Solve(); v != Unsat {
		t.Fatal("unsat must be sticky under growth")
	}
	if got := sess.SampleModels(4); len(got) != 0 {
		t.Fatalf("unsat session sampled %d models", len(got))
	}
	// A fresh session on the same solver is unaffected.
	if _, v := s.NewSession(bv.Ult(x, bv.Const(8, 10))).Solve(); v != Sat {
		t.Fatal("parent solver poisoned by an unsat session")
	}
}

// TestSessionSamplingDoesNotNarrow is the reason blocking goes through guard
// literals: after sampling every solution of the constraint, a later Solve
// on the same session must still find one. Permanent blocking clauses would
// make it unsatisfiable.
func TestSessionSamplingDoesNotNarrow(t *testing.T) {
	// Force the CDCL path so blocking clauses actually enter the engine.
	s := New(Options{Seed: 7, Mode: ModeSATOnly})
	x := bv.Var(32, "sn_x")
	sess := s.NewSession(bv.OverflowCond(bv.Add(x, bv.Const(32, 2))))
	models := sess.SampleModels(200)
	if len(models) != 2 {
		t.Fatalf("got %d models, want exactly 2", len(models))
	}
	m, v := sess.Solve()
	if v != Sat {
		t.Fatalf("solve after exhaustive sampling = %v, want sat (guards must not persist)", v)
	}
	if m["sn_x"] != 0xFFFFFFFE && m["sn_x"] != 0xFFFFFFFF {
		t.Fatalf("model %v is not a solution", m)
	}
}

// TestSessionDeterminism: identical parent seeds and call sequences yield
// identical models, which is what lets hunts stay a pure function of
// (app, seed, site) with sessions enabled.
func TestSessionDeterminism(t *testing.T) {
	run := func() []bv.Assignment {
		s := New(Options{Seed: 21, Mode: ModeSATOnly})
		w := bv.Var(32, "sd_w")
		h := bv.Var(32, "sd_h")
		sess := s.NewSession(bv.OverflowCond(bv.Mul(w, h)))
		out := sess.SampleModels(5)
		sess.Assert(bv.Ult(w, bv.Const(32, 1<<20)))
		m, v := sess.Solve()
		if v != Sat {
			t.Fatalf("solve: %v", v)
		}
		return append(out, m)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("model counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for k, v := range a[i] {
			if b[i][k] != v {
				t.Fatalf("model %d differs at %s: %d vs %d", i, k, v, b[i][k])
			}
		}
	}
}

// TestSessionStatsCounters exercises the incremental counters end to end:
// repeated CDCL solves on one session must report retained learned clauses,
// and each sampling strategy must report its own draws — restart samples for
// the default, assumption solves for the blocking ablation.
func TestSessionStatsCounters(t *testing.T) {
	s := New(Options{Seed: 23, Mode: ModeSATOnly})
	w := bv.Var(32, "sc2_w")
	h := bv.Var(32, "sc2_h")
	sess := s.NewSession(bv.OverflowCond(bv.Mul(w, h)))
	if got := sess.SampleModels(6); len(got) != 6 {
		t.Fatalf("sampled %d models, want 6", len(got))
	}
	st := s.Snapshot()
	if st.RestartSamples == 0 {
		t.Errorf("default sampling drew no restart samples: %+v", st)
	}
	// Learnt retention is observed across incremental *solves*: narrowing the
	// conjunction forces real CDCL work (restart draws on this dense constraint
	// are nearly conflict-free, so sampling alone retains nothing), and the
	// growth of the learnt database is counted at the start of the next call.
	sess.Assert(bv.Ult(w, bv.Const(32, 4)))
	if _, v := sess.Solve(); v != Sat {
		t.Fatalf("narrowed solve: %v", v)
	}
	sess.Assert(bv.Ult(h, bv.Const(32, 1<<16)))
	if _, v := sess.Solve(); v != Unsat {
		t.Fatalf("contradicted solve: %v", v)
	}
	if _, v := sess.Solve(); v != Unsat {
		t.Fatalf("re-solve after unsat: %v", v)
	}
	if st = s.Snapshot(); st.ClausesReused == 0 {
		t.Errorf("no learned clauses retained across incremental calls: %+v", st)
	}

	sb := New(Options{Seed: 23, Mode: ModeSATOnly, Sampling: SamplingBlocking})
	bw := bv.Var(32, "sc2_bw")
	bh := bv.Var(32, "sc2_bh")
	bsess := sb.NewSession(bv.OverflowCond(bv.Mul(bw, bh)))
	if got := bsess.SampleModels(6); len(got) != 6 {
		t.Fatalf("blocking sampled %d models, want 6", len(got))
	}
	bst := sb.Snapshot()
	if bst.AssumptionSolves == 0 {
		t.Errorf("blocking sampling never solved under assumptions: %+v", bst)
	}
	if bst.RestartSamples != 0 {
		t.Errorf("blocking sampling drew restart samples: %+v", bst)
	}
}

// TestSessionRetryDiversity pins the crashed-early contract: re-solving an
// unchanged conjunction on a persistent engine must not be pinned to the
// previous model by saved phases — the enforcement loop re-solves precisely
// because it needs a different model.
func TestSessionRetryDiversity(t *testing.T) {
	s := New(Options{Seed: 31, Mode: ModeSATOnly})
	w := bv.Var(32, "rd_w")
	h := bv.Var(32, "rd_h")
	sess := s.NewSession(bv.OverflowCond(bv.Mul(w, h)))
	distinct := map[[2]uint64]bool{}
	for i := 0; i < 8; i++ {
		m, v := sess.Solve()
		if v != Sat {
			t.Fatalf("re-solve %d: %v", i, v)
		}
		distinct[[2]uint64{m["rd_w"], m["rd_h"]}] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 re-solves of an unchanged conjunction returned %d distinct model(s)", len(distinct))
	}

	// Every model-returning path must stamp the conjunction state as solved,
	// so the *first* re-solve after it already runs at retry polarity —
	// including after sampling (whose last model the saved phases hold) and
	// after a cache hit.
	s2 := New(Options{Seed: 32, Mode: ModeSATOnly})
	sess2 := s2.NewSession(bv.OverflowCond(bv.Mul(w, h)))
	if got := sess2.SampleModels(3); len(got) != 3 {
		t.Fatalf("sampled %d models, want 3", len(got))
	}
	if sess2.solvedGen != len(sess2.conj)+1 {
		t.Fatal("SampleModels did not mark the conjunction state solved")
	}
	s3 := New(Options{Seed: 33})
	x := bv.Var(32, "rd_x")
	sess3 := s3.NewSession(bv.Ugt(x, bv.Const(32, 9)))
	if _, v := sess3.Solve(); v != Sat {
		t.Fatal("expected sat")
	}
	sess3.Assert(bv.Ugt(x, bv.Const(32, 4)))
	if _, v := sess3.Solve(); v != Sat { // cache hit
		t.Fatal("expected sat")
	}
	if s3.Snapshot().ModelCacheHits != 1 {
		t.Fatalf("expected a cache hit, stats %+v", s3.Snapshot())
	}
	if sess3.solvedGen != len(sess3.conj)+1 {
		t.Fatal("cache hit did not mark the conjunction state solved")
	}
}
