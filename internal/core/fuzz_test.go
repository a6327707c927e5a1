package core

import (
	"context"
	"sync"
	"testing"

	"diode/internal/apps"
	"diode/internal/interp"
)

// FuzzHunt is the cross-layer fuzz target: it drives whole HuntContext runs —
// analysis-produced Target, private solver session, input generation, guest
// execution on the reused compiled machine, trace comparison — from fuzzed
// (seed, site-index) pairs over every registered application. The engine
// invariants it pins:
//
//   - no layer panics, for any solver seed at any site;
//   - an Exposed verdict's triggering input passes the format's structural
//     Validate (the fix-up invariant holds for hunt-produced files, not just
//     for the per-format fuzz targets' direct Generate calls);
//   - the triggering input re-triggers the overflow on the independent
//     tree-walking interpreter (interp.RunTree), so no reused-machine state
//     leaked into the verdict.
//
// Hunts run under the fixed production budget (initialAttempts, maxEnforce);
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
			targets, err := NewAnalyzer(app, Options{}).AnalyzeContext(context.Background())
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
		h := NewHunter(p.app, Options{Seed: SiteSeed(seed, p.target.Site)})
		res := h.HuntContext(context.Background(), p.target)
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
		// Independent re-execution: the tree-walking oracle, at the default
		// fuel every hunt run gets, must reproduce the overflow the hunter's
		// reused machine observed.
		out := interp.RunTree(p.app.Program, res.Input, interp.Options{})
		if ok, _ := triggered(p.target, out); !ok {
			t.Fatalf("%s: triggering input does not re-trigger on the tree-walking interpreter", p.target.Site)
		}
	})
}
