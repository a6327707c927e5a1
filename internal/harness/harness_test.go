package harness

import (
	"context"
	"testing"

	"diode/internal/apps"
	"diode/internal/core"
)

// TestEvaluateClassification runs the five-application paper sweep (Table 1)
// through the harness and checks the totals against the paper.
func TestEvaluateClassification(t *testing.T) {
	outcomes := EvaluateContext(context.Background(), Config{Seed: 21}, apps.Paper())
	if len(outcomes) != 5 {
		t.Fatalf("%d outcomes, want 5", len(outcomes))
	}
	var exposed, unsat, prevented int
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		for _, sr := range o.Result.Sites {
			switch sr.Verdict.Class() {
			case apps.ClassExposed:
				exposed++
			case apps.ClassUnsat:
				unsat++
			default:
				prevented++
			}
		}
	}
	if exposed != 14 || unsat != 17 || prevented != 9 {
		t.Fatalf("classification %d/%d/%d, paper: 14/17/9", exposed, unsat, prevented)
	}
	if recs := Records(outcomes); len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
}

// TestEvaluateWithExperiments runs one app with small sampling budgets and
// checks the experiment fields are populated.
func TestEvaluateWithExperiments(t *testing.T) {
	app, err := apps.ByName("vlc")
	if err != nil {
		t.Fatal(err)
	}
	outcomes := EvaluateContext(context.Background(), Config{Seed: 5, SampleN: 20, SamePath: true}, []*apps.App{app})
	if outcomes[0].Err != nil {
		t.Fatal(outcomes[0].Err)
	}
	rec := outcomes[0].Record
	for _, s := range rec.Sites {
		if s.Class != apps.ClassExposed.String() {
			continue
		}
		if s.TargetOnly.Total == 0 {
			t.Errorf("%s: target-only experiment not run", s.Site)
		}
		if s.SamePathSat == "" {
			t.Errorf("%s: same-path experiment not run", s.Site)
		}
	}
}

// TestSuccessRateBimodality reproduces §5.5's core observation on VLC with a
// reduced sample count: the check-free site (block.c@54) triggers on every
// sampled input; the check-guarded site (messages.c@355) triggers on few or
// none.
func TestSuccessRateBimodality(t *testing.T) {
	app, err := apps.ByName("vlc")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 17}
	targets, err := core.NewAnalyzer(app, opts).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for _, tg := range targets {
		rate := func() (int, int) {
			return core.NewHunter(app, core.Options{Seed: core.SiteSeed(opts.Seed, tg.Site)}).SuccessRateContext(context.Background(), tg, tg.Beta, n)
		}
		switch tg.Site {
		case "vlc:block.c@54":
			hits, total := rate()
			if total == 0 || hits*10 < total*9 {
				t.Errorf("block.c@54: %d/%d, expected ≈all to trigger (no checks)", hits, total)
			}
		case "vlc:messages.c@355":
			hits, total := rate()
			if total == 0 {
				t.Fatal("messages.c@355: no models sampled")
			}
			if hits*2 > total {
				t.Errorf("messages.c@355: %d/%d, expected a minority to trigger (sanity checks)", hits, total)
			}
		}
	}
}
