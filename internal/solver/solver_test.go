package solver

import (
	"sync"
	"testing"

	"diode/internal/bv"
)

func mustModel(t *testing.T, s *Solver, f *bv.Bool) bv.Assignment {
	t.Helper()
	m, v := s.Solve(f)
	if v != Sat {
		t.Fatalf("Solve = %v, want sat", v)
	}
	ok, err := m.EvalBool(f)
	if err != nil {
		t.Fatalf("model incomplete: %v", err)
	}
	if !ok {
		t.Fatalf("model %v does not satisfy constraint", m)
	}
	return m
}

func TestSolveSimple(t *testing.T) {
	s := New(Options{Seed: 1})
	x := bv.Var(32, "ss_x")
	f := bv.AndB(bv.Ugt(x, bv.Const(32, 1000)), bv.Ult(x, bv.Const(32, 1010)))
	m := mustModel(t, s, f)
	if m["ss_x"] <= 1000 || m["ss_x"] >= 1010 {
		t.Fatalf("x = %d out of range", m["ss_x"])
	}
}

func TestSolveConstants(t *testing.T) {
	s := New(Options{Seed: 1})
	if _, v := s.Solve(bv.True()); v != Sat {
		t.Fatal("true must be sat")
	}
	if _, v := s.Solve(bv.False()); v != Unsat {
		t.Fatal("false must be unsat")
	}
}

// TestUnsatOverflow mirrors the paper's "target constraint unsatisfiable"
// sites (17 of 40): an allocation size like zext(u8)*4 computed in 32 bits
// can never wrap, and the solver must prove it.
func TestUnsatOverflow(t *testing.T) {
	s := New(Options{Seed: 1})
	n := bv.Var(8, "uo_n")
	size := bv.Mul(bv.ZExt(32, n), bv.Const(32, 4))
	_, v := s.Solve(bv.OverflowCond(size))
	if v != Unsat {
		t.Fatalf("Solve = %v, want unsat", v)
	}
}

func TestSatOverflow(t *testing.T) {
	s := New(Options{Seed: 1})
	w := bv.Var(32, "so_w")
	h := bv.Var(32, "so_h")
	size := bv.Mul(w, h)
	m := mustModel(t, s, bv.OverflowCond(size))
	// The ideal product must exceed 2^32.
	if hi := (m["so_w"] * m["so_h"]) >> 32; hi == 0 && m["so_w"]*m["so_h"] <= 0xFFFFFFFF {
		t.Fatalf("model %v does not overflow a 32-bit multiply", m)
	}
}

// TestSolveUnderSanityChecks emulates an enforcement-iteration constraint:
// overflow must happen while both fields stay below a sanity bound —
// solutions are sparse enough that concrete sampling alone is unlikely.
func TestSolveUnderSanityChecks(t *testing.T) {
	s := New(Options{Seed: 3})
	w := bv.Var(32, "sc_w")
	h := bv.Var(32, "sc_h")
	size := bv.Mul(w, h)
	million := bv.Const(32, 1000000)
	f := bv.AndB(bv.OverflowCond(size),
		bv.AndB(bv.Ult(w, million), bv.Ult(h, million)))
	m := mustModel(t, s, f)
	if m["sc_w"] >= 1000000 || m["sc_h"] >= 1000000 {
		t.Fatalf("model %v violates sanity bounds", m)
	}
	if m["sc_w"]*m["sc_h"] <= 0xFFFFFFFF {
		t.Fatalf("model %v does not overflow", m)
	}
}

func TestSolverModes(t *testing.T) {
	x := bv.Var(16, "md_x")
	f := bv.Eq(bv.Mul(x, x), bv.Const(16, 0x0CE4)) // 58*58 = 3364 = 0x0D24? compute below
	// Use a constraint with a guaranteed solution: x*3 = 999 → x = 333.
	f = bv.Eq(bv.Mul(x, bv.Const(16, 3)), bv.Const(16, 999))

	for _, mode := range []Mode{ModeHybrid, ModeSATOnly} {
		s := New(Options{Seed: 5, Mode: mode})
		m, v := s.Solve(f)
		if v != Sat {
			t.Fatalf("mode %d: %v", mode, v)
		}
		if got, _ := m.EvalBool(f); !got {
			t.Fatalf("mode %d: bad model %v", mode, m)
		}
	}
}

// TestSampleExactlyTwoSolutions reproduces the CVE-2008-2430 situation from
// §5.5: the target expression x+2 (32-bit) overflows for exactly two input
// values, and sampling must find both and no more.
func TestSampleExactlyTwoSolutions(t *testing.T) {
	s := New(Options{Seed: 7})
	x := bv.Var(32, "s2_x")
	f := bv.OverflowCond(bv.Add(x, bv.Const(32, 2)))
	models, why := s.SampleModels(f, 200)
	if len(models) != 2 || why != Unsat {
		t.Fatalf("got %d models (%v), want exactly 2 (unsat: exhausted)", len(models), why)
	}
	seen := map[uint64]bool{}
	for _, m := range models {
		seen[m["s2_x"]] = true
	}
	if !seen[0xFFFFFFFE] || !seen[0xFFFFFFFF] {
		t.Fatalf("models = %v, want {0xFFFFFFFE, 0xFFFFFFFF}", models)
	}
}

func TestSampleManyDistinct(t *testing.T) {
	s := New(Options{Seed: 11})
	w := bv.Var(32, "sm_w")
	h := bv.Var(32, "sm_h")
	f := bv.OverflowCond(bv.Mul(w, h))
	models, why := s.SampleModels(f, 50)
	if len(models) != 50 || why != Sat {
		t.Fatalf("got %d models (%v), want 50 (sat)", len(models), why)
	}
	seen := make(map[[2]uint64]bool)
	for _, m := range models {
		key := [2]uint64{m["sm_w"], m["sm_h"]}
		if seen[key] {
			t.Fatalf("duplicate model %v", key)
		}
		seen[key] = true
		if ok, _ := m.EvalBool(f); !ok {
			t.Fatalf("model %v does not satisfy constraint", m)
		}
	}
}

func TestSampleUnsat(t *testing.T) {
	s := New(Options{Seed: 13})
	n := bv.Var(8, "su_n")
	f := bv.OverflowCond(bv.Mul(bv.ZExt(32, n), bv.Const(32, 2)))
	if models, why := s.SampleModels(f, 10); len(models) != 0 || why != Unsat {
		t.Fatalf("unsat constraint yielded %d models (%v), want 0 (unsat)", len(models), why)
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	x := bv.Var(32, "dt_x")
	f := bv.Ugt(x, bv.Const(32, 12345))
	m1, _ := New(Options{Seed: 42}).Solve(f)
	m2, _ := New(Options{Seed: 42}).Solve(f)
	if m1["dt_x"] != m2["dt_x"] {
		t.Fatalf("same seed, different models: %v vs %v", m1, m2)
	}
}

func TestStatsTracking(t *testing.T) {
	s := New(Options{Seed: 1})
	x := bv.Var(32, "st_x")
	s.Solve(bv.Ugt(x, bv.Const(32, 5)))           // dense: concrete hit
	s.Solve(bv.Ult(x, bv.Const(32, 0)))           // folds to false constant
	s.Solve(bv.Eq(x, bv.Add(x, bv.Const(32, 1)))) // unsat via SAT
	st := s.Snapshot()
	if st.ConcreteHits < 1 {
		t.Errorf("expected at least one concrete hit, got %+v", st)
	}
	if st.UnsatResults < 1 {
		t.Errorf("expected at least one unsat, got %+v", st)
	}
}

// TestConcurrentSolve hammers one Solver from many goroutines; run under
// -race it proves the shared random stream and the work counters are safe
// for concurrent solvers.
func TestConcurrentSolve(t *testing.T) {
	s := New(Options{Seed: 7})
	x := bv.Var(32, "cc_x")
	sat := bv.Ugt(x, bv.Const(32, 1000))                   // dense: concrete hit
	unsat := bv.Eq(x, bv.Add(x, bv.Const(32, 1)))          // settled by CDCL
	narrow := bv.AndB(bv.Ugt(x, bv.Const(32, 0xfffffff0)), // sparse: falls back
		bv.Ult(x, bv.Const(32, 0xfffffff4)))

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if m, v := s.Solve(sat); v != Sat || m["cc_x"] <= 1000 {
					t.Errorf("worker %d: sat constraint: %v %v", w, v, m)
				}
				if _, v := s.Solve(unsat); v != Unsat {
					t.Errorf("worker %d: unsat constraint not proven", w)
				}
				if m, v := s.Solve(narrow); v != Sat {
					t.Errorf("worker %d: narrow constraint: %v %v", w, v, m)
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Snapshot()
	if st.UnsatResults != workers*rounds {
		t.Errorf("UnsatResults = %d, want %d", st.UnsatResults, workers*rounds)
	}
	if hits := st.ConcreteHits; hits < workers*rounds {
		t.Errorf("ConcreteHits = %d, want >= %d", hits, workers*rounds)
	}
}
