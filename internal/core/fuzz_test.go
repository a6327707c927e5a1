package core

import (
	"context"
	"sync"
	"testing"

	"diode/internal/apps"
)

// FuzzHunt is the cross-layer fuzz target: it drives whole Hunter.Hunt runs —
// analysis-produced Target, private solver session, input generation, guest
// execution on the reused compiled machine, trace comparison — from fuzzed
// (seed, site-index) pairs over every registered application. The engine
// invariants it pins:
//
//   - no layer panics, for any solver seed at any site;
//   - an Exposed verdict's triggering input passes the format's structural
//     Validate (the fix-up invariant holds for hunt-produced files, not just
//     for the per-format fuzz targets' direct Generate calls);
//   - the triggering input re-triggers the overflow on an independent
//     compile-and-run of the guest (no reused-machine state leaked into the
//     verdict).
//
// The enforcement budget is reduced so individual fuzz executions stay fast;
// a budget-exhausted hunt simply ends VerdictUnknown, which is itself a
// valid outcome to fuzz through.

type huntPair struct {
	app    *apps.App
	target *Target
}

var (
	fuzzHuntOnce  sync.Once
	fuzzHuntPairs []huntPair
	fuzzHuntErr   error
)

func fuzzHuntTargets() ([]huntPair, error) {
	fuzzHuntOnce.Do(func() {
		for _, app := range apps.All() {
			targets, err := NewAnalyzer(app, Options{}).Analyze()
			if err != nil {
				fuzzHuntErr = err
				return
			}
			for _, t := range targets {
				fuzzHuntPairs = append(fuzzHuntPairs, huntPair{app: app, target: t})
			}
		}
	})
	return fuzzHuntPairs, fuzzHuntErr
}

func FuzzHunt(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(7))
	f.Add(int64(-9001), uint16(21))
	f.Add(int64(0x7FFFFFFFFFFFFFFF), uint16(39))
	f.Fuzz(func(t *testing.T, seed int64, idx uint16) {
		pairs, err := fuzzHuntTargets()
		if err != nil {
			t.Fatalf("analysis: %v", err)
		}
		p := pairs[int(idx)%len(pairs)]
		h := NewHunter(p.app, Options{
			Seed:     SiteSeed(seed, p.target.Site),
			Settings: Settings{InitialAttempts: 3, MaxEnforce: 8},
		})
		res := h.Hunt(p.target)
		if res.Verdict != VerdictExposed {
			return
		}
		if res.Input == nil {
			t.Fatalf("%s: exposed verdict without a triggering input", p.target.Site)
		}
		if p.app.Format.Validate != nil {
			if err := p.app.Format.Validate(res.Input); err != nil {
				t.Fatalf("%s: triggering input fails structural validation: %v", p.target.Site, err)
			}
		}
		// Independent re-execution: a fresh compile-and-run must reproduce
		// the overflow the hunter's reused machine observed.
		out := NewHunter(p.app, Options{Settings: Settings{OneShotExecution: true}}).execute(context.Background(), p.target, res.Input, false)
		if ok, _ := triggered(p.target, out); !ok {
			t.Fatalf("%s: triggering input does not re-trigger on a fresh interpreter", p.target.Site)
		}
	})
}
