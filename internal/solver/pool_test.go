package solver

import (
	"fmt"
	"runtime"
	"testing"

	"diode/internal/bv"
	"diode/internal/sat"
)

// raceEnabled reports a race-detector build (race_test.go).
var raceEnabled bool

// poolScript runs a fixed mix of sessions on a fresh Solver: sampling and
// incremental solves over overflow and factoring constraints. closeEach says
// whether each session is closed after its last call; engines records the
// engine each session drew. It returns every verdict and model in order.
func poolScript(closeEach bool, engines *[]*sat.Solver) string {
	s := New(Options{Seed: 17, Mode: ModeSATOnly})
	w, h := bv.Var(16, "pl_w"), bv.Var(16, "pl_h")
	betas := []*bv.Bool{
		bv.OverflowCond(bv.Mul(w, h)),
		factorCond(8, 143, "pl"),
		bv.OverflowCond(bv.Add(w, bv.Mul(h, bv.Const(16, 3)))),
		bv.AndB(bv.OverflowCond(bv.Mul(w, h)), bv.Ult(w, bv.Const(16, 9))),
	}
	var out string
	for i, beta := range betas {
		sess := s.NewSession(beta)
		models, v := sess.SampleModels(12)
		out += fmt.Sprintf("session %d sample %v %v\n", i, v, models)
		sess.Assert(bv.Ult(h, bv.Const(16, uint64(300+100*i))))
		m, v := sess.Solve()
		out += fmt.Sprintf("session %d solve %v %v\n", i, v, m)
		*engines = append(*engines, sess.engine)
		if closeEach {
			sess.Close()
		}
	}
	return out
}

// TestRecycledEnginesMatchFresh runs one session script twice: on fresh
// engines, and on engines recycled through Close, starting from a pool
// primed with a larger engine. Verdicts and sampled model sequences must be
// identical.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	var fresh, recycled []*sat.Solver
	runtime.GC()
	runtime.GC() // two cycles empty a sync.Pool
	want := poolScript(false, &fresh)

	// Prime the pool with an engine larger than any the script builds.
	big := New(Options{Seed: 5, Mode: ModeSATOnly})
	x, y := bv.Var(32, "pl_x"), bv.Var(32, "pl_y")
	sess := big.NewSession(bv.OverflowCond(bv.Mul(x, y)))
	if _, v := sess.SampleModels(4); v != Sat {
		t.Fatalf("priming session: %v", v)
	}
	primed, primedVars := sess.engine, sess.engine.NumVars()
	sess.Close()

	got := poolScript(true, &recycled)
	if got != want {
		t.Fatalf("recycled engines diverge from fresh ones:\n--- fresh:\n%s--- recycled:\n%s", want, got)
	}
	for i, e := range fresh {
		if e.NumVars() >= primedVars {
			t.Fatalf("script session %d built %d variables, not fewer than the primed %d", i, e.NumVars(), primedVars)
		}
	}
	// sync.Pool may hand a Put engine to another processor, so not every
	// session need draw a recycled engine; the first almost always draws
	// the primed one.
	reused := 0
	for i, e := range recycled {
		if e == primed || (i > 0 && e == recycled[i-1]) {
			reused++
		}
	}
	t.Logf("%d of %d sessions drew a recycled engine", reused, len(recycled))
	if reused == 0 {
		t.Fatalf("no session drew a recycled engine")
	}
}

// TestRecycledEngineAllocs guards engine recycling: a second session over
// the same β, on the engine the first one closed, makes far fewer
// allocations than the first, which built its engine from nothing: about
// 1,500 against 39,000 when this test was written.
func TestRecycledEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := New(Options{Seed: 9, Mode: ModeSATOnly})
	x, y := bv.Var(32, "pa_x"), bv.Var(32, "pa_y")
	beta := bv.OverflowCond(bv.Mul(x, y))
	session := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess := s.NewSession(beta)
		if _, v := sess.Solve(); v != Sat {
			t.Fatalf("solve: %v", v)
		}
		sess.Close()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	runtime.GC()
	runtime.GC() // two cycles empty a sync.Pool
	first := session()
	// A Put engine waits in the closing processor's private slot, which a
	// goroutine moved to another processor cannot reach; the least of
	// three sessions has drawn the recycled engine.
	second := min(session(), session(), session())
	t.Logf("first session %d allocations, second %d", first, second)
	if 10*second > first {
		t.Fatalf("a session on a recycled engine made %d allocations, over a tenth of the %d a fresh engine took", second, first)
	}
}
