package core

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"diode/internal/apps"
)

// TestSiteSeedDerivation checks the per-site seed is a pure function of
// (run seed, site) and separates both dimensions.
func TestSiteSeedDerivation(t *testing.T) {
	if SiteSeed(1, "a") != SiteSeed(1, "a") {
		t.Fatal("SiteSeed not deterministic")
	}
	if SiteSeed(1, "a") == SiteSeed(2, "a") {
		t.Error("SiteSeed ignores the run seed")
	}
	if SiteSeed(1, "a") == SiteSeed(1, "b") {
		t.Error("SiteSeed ignores the site name")
	}
}

// TestSchedulerDeterminism is the acceptance test for per-site seeding:
// hunting every site concurrently, each on its own Hunter seeded with
// SiteSeed(seed, site), must produce byte-identical verdicts, enforced-branch
// lists, triggering inputs and run counts to the sequential definition
// (huntSites), for every site of multiple applications. Any state shared
// between Hunters would show up here as a divergence (and under -race).
func TestSchedulerDeterminism(t *testing.T) {
	for _, short := range []string{"vlc", "dillo", "swfplay"} {
		app, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		const seed = 11
		seq := huntSites(t, app, seed)
		par := make([]*SiteResult, len(seq.Sites))
		var wg sync.WaitGroup
		for i, ss := range seq.Sites {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par[i] = NewHunter(app, Options{Seed: SiteSeed(seed, ss.Target.Site)}).HuntContext(context.Background(), ss.Target)
			}()
		}
		wg.Wait()
		for i, ss := range seq.Sites {
			ps := par[i]
			if ss.Verdict != ps.Verdict {
				t.Errorf("%s %s: verdict %v sequential vs %v parallel", short, ss.Target.Site, ss.Verdict, ps.Verdict)
			}
			if !reflect.DeepEqual(ss.Enforced, ps.Enforced) {
				t.Errorf("%s %s: enforced %v vs %v", short, ss.Target.Site, ss.Enforced, ps.Enforced)
			}
			if !bytes.Equal(ss.Input, ps.Input) {
				t.Errorf("%s %s: triggering inputs differ", short, ss.Target.Site)
			}
			if ss.ErrorType != ps.ErrorType {
				t.Errorf("%s %s: error type %q vs %q", short, ss.Target.Site, ss.ErrorType, ps.ErrorType)
			}
			if ss.Runs != ps.Runs {
				t.Errorf("%s %s: %d runs vs %d", short, ss.Target.Site, ss.Runs, ps.Runs)
			}
		}
	}
}
