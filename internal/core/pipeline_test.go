package core

import (
	"context"
	"testing"

	"diode/internal/apps"
	"diode/internal/interp"
	"diode/internal/solver"
)

func huntApp(t *testing.T, short string, seed int64) *AppResult {
	t.Helper()
	app, err := apps.ByName(short)
	if err != nil {
		t.Fatal(err)
	}
	return huntSites(t, app, seed)
}

// huntSites is the definition of a verdict: analyze the application once,
// then hunt every target on its own Hunter seeded with SiteSeed(seed, site),
// in analysis order. Every fan-out (dispatch backends, the harness sweep)
// must reproduce it; dispatch.SiteJob passes SiteSeed(run seed, app) as
// seed.
func huntSites(t *testing.T, app *apps.App, seed int64) *AppResult {
	t.Helper()
	targets, err := NewAnalyzer(app, Options{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := &AppResult{App: app}
	for _, tg := range targets {
		res.Sites = append(res.Sites, NewHunter(app, Options{Seed: SiteSeed(seed, tg.Site)}).HuntContext(context.Background(), tg))
	}
	return res
}

// checkClassification compares measured verdicts against the paper's
// Table 1 rows for one application.
func checkClassification(t *testing.T, res *AppResult) {
	t.Helper()
	for _, ps := range res.App.Paper {
		sr, ok := res.ResultFor(ps.Site)
		if !ok {
			t.Errorf("%s: no result for site %s", res.App.Short, ps.Site)
			continue
		}
		if got := sr.Verdict.Class(); got != ps.Class {
			t.Errorf("%s %s: classified %v (verdict %v, enforced %v), paper says %v",
				res.App.Short, ps.Site, got, sr.Verdict, sr.Enforced, ps.Class)
		}
	}
	if len(res.Sites) != len(res.App.Paper) {
		t.Errorf("%s: %d sites analyzed, want %d", res.App.Short, len(res.Sites), len(res.App.Paper))
	}
}

// checkTriggeringInputs re-runs every exposed site's generated input and
// verifies it actually overflows at that site — the paper's manual
// verification step, automated.
func checkTriggeringInputs(t *testing.T, res *AppResult) {
	t.Helper()
	for _, sr := range res.Sites {
		if sr.Verdict != VerdictExposed {
			continue
		}
		if len(sr.Input) == 0 {
			t.Errorf("%s: exposed without an input", sr.Target.Site)
			continue
		}
		out := interp.Run(res.App.Program, sr.Input, interp.Options{})
		ok, _ := triggered(sr.Target, out)
		if !ok {
			t.Errorf("%s: stored input does not reproduce the overflow", sr.Target.Site)
		}
		if sr.ErrorType == "" {
			t.Errorf("%s: missing error type", sr.Target.Site)
		}
	}
}

func TestVLCFullPipeline(t *testing.T) {
	res := huntApp(t, "vlc", 1)
	checkClassification(t, res)
	checkTriggeringInputs(t, res)

	// wav.c@147 (x+2) must be exposed without enforcing any branch.
	sr, _ := res.ResultFor("vlc:wav.c@147")
	if sr.Verdict != VerdictExposed || sr.EnforcedCount() != 0 {
		t.Errorf("wav.c@147: verdict %v enforced %d, want exposed/0", sr.Verdict, sr.EnforcedCount())
	}
	// messages.c@355 needs enforcement (the paper reports 2).
	sr, _ = res.ResultFor("vlc:messages.c@355")
	if sr.Verdict != VerdictExposed {
		t.Fatalf("messages.c@355: %v", sr.Verdict)
	}
	if sr.EnforcedCount() < 1 || sr.EnforcedCount() > 4 {
		t.Errorf("messages.c@355: enforced %d branches (%v), expected 1–4 (paper: 2)",
			sr.EnforcedCount(), sr.Enforced)
	}
}

func TestSwfPlayFullPipeline(t *testing.T) {
	res := huntApp(t, "swfplay", 2)
	checkClassification(t, res)
	checkTriggeringInputs(t, res)
	for _, site := range []string{
		"swfplay:jpeg.c@192",
		"swfplay:jpeg_rgb_decoder.c@253",
		"swfplay:jpeg_rgb_decoder.c@257",
	} {
		sr, _ := res.ResultFor(site)
		if sr.Verdict != VerdictExposed || sr.EnforcedCount() != 0 {
			t.Errorf("%s: verdict %v enforced %d, want exposed with 0 enforced",
				site, sr.Verdict, sr.EnforcedCount())
		}
	}
}

func TestCWebPFullPipeline(t *testing.T) {
	res := huntApp(t, "cwebp", 3)
	checkClassification(t, res)
	checkTriggeringInputs(t, res)
}

func TestImageMagickFullPipeline(t *testing.T) {
	res := huntApp(t, "imagemagick", 4)
	checkClassification(t, res)
	checkTriggeringInputs(t, res)
}

func TestDilloFullPipeline(t *testing.T) {
	res := huntApp(t, "dillo", 5)
	checkClassification(t, res)
	checkTriggeringInputs(t, res)

	// png.c@203 (the §2 example) must require branch enforcement: the five
	// sanity checks force a detour (the paper enforces 4).
	sr, _ := res.ResultFor("dillo:png.c@203")
	if sr.Verdict != VerdictExposed {
		t.Fatalf("png.c@203: %v", sr.Verdict)
	}
	if sr.EnforcedCount() < 2 {
		t.Errorf("png.c@203: enforced %d (%v), expected ≥2 (paper: 4)",
			sr.EnforcedCount(), sr.Enforced)
	}
}

// TestSamePathBlocking reproduces §5.4: for every exposed site, the
// "overflow on the seed's exact path" constraint must be satisfiable for
// exactly the two sites the paper names (SwfPlay jpeg.c@192 and CWebP
// jpegdec.c@248) and unsatisfiable everywhere else — blocking checks force
// overflow-triggering inputs onto a different path for 12 of the 14 sites.
func TestSamePathBlocking(t *testing.T) {
	samePathSat := map[string]bool{
		"swfplay:jpeg.c@192":  true,
		"cwebp:jpegdec.c@248": true,
	}
	for _, app := range apps.All() {
		opts := Options{Seed: 9}
		targets, err := NewAnalyzer(app, opts).AnalyzeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]*Target{}
		for _, tg := range targets {
			byName[tg.Site] = tg
		}
		for _, ps := range app.Paper {
			if ps.Class != apps.ClassExposed {
				continue
			}
			target := byName[ps.Site]
			if target == nil {
				t.Fatalf("%s: target %s not found", app.Short, ps.Site)
			}
			want := solver.Unsat
			if samePathSat[ps.Site] {
				want = solver.Sat
			}
			if got := NewHunter(app, Options{Seed: SiteSeed(opts.Seed, target.Site)}).SamePathSatisfiable(target); got != want {
				t.Errorf("%s same-path constraint: %v, want %v", ps.Site, got, want)
			}
			if samePathSat[ps.Site] != ps.SamePathSat {
				t.Errorf("%s: paper table SamePathSat=%v inconsistent with test expectation",
					ps.Site, ps.SamePathSat)
			}
		}
	}
}
