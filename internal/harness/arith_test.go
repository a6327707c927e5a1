package harness

import (
	"context"
	"strings"
	"testing"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
)

// TestArithHuntPerApp is the acceptance test for the extended arith-hunt
// surface: for every benchmark application, at least one discovered arith
// site — one the static triage could not dismiss — is hunted end-to-end
// through the probe pipeline, producing a definite verdict from the
// statically derived overflow constraint at the arith node.
//
// Site selection is deterministic and budget-aware: the first non-safe
// multiplication site in discovery order (falling back to the first
// non-safe arith site of any operator). Multiplications overflow readily,
// so the solver finds a model in milliseconds; addition constraints are
// more often unsatisfiable, and the slowest of those proofs are pinned
// separately (TestArithUnsatAddsRefuted).
func TestArithHuntPerApp(t *testing.T) {
	ctx := context.Background()
	jc := dispatch.NewJobCache(dispatch.CacheConfig{})
	for _, app := range apps.All() {
		app := app
		t.Run(app.Short, func(t *testing.T) {
			sites, err := app.Triaged()
			if err != nil {
				t.Fatal(err)
			}
			best := discover.Site{}
			for _, s := range sites {
				if s.Kind != discover.KindArith || s.Triage == discover.TriageSafe {
					continue
				}
				if best.Name == "" {
					best = s
				}
				if strings.HasSuffix(s.Name, "@mul") {
					best = s
					break
				}
			}
			if best.Name == "" {
				t.Fatalf("no non-safe arith site in %s", app.Short)
			}
			job := dispatch.Job{
				Kind: dispatch.KindHunt, App: app.Short,
				Site: best.Name, SiteKind: string(best.Kind), SitePath: best.Path,
				Seed: core.SiteSeed(21, best.Name),
			}
			res, err := dispatch.Execute(ctx, job, jc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != "" {
				t.Fatalf("site %s: %s", best.Name, res.Err)
			}
			if _, ok := res.CoreVerdict(); !ok {
				t.Fatalf("site %s: unparseable verdict %q", best.Name, res.Verdict)
			}
			t.Logf("site %s: %s %s", best.Name, res.Verdict, res.ErrorType)
		})
	}
}

// TestArithUnsatAddsRefuted pins the addition sites whose β has no model
// and whose restart sampling used to refute it by enumerating input bits:
// three gifview offsets, and the SOF-segment sums swfplay and cwebp share.
// Each must end unsatisfiable. The conflict bound keeps the proof on the
// activity order: with the decision focus held for the whole first draw,
// the gifview proofs took 22k–29k conflicts and the swfplay/cwebp draws ran
// out of their 500k-conflict budget (unknown).
func TestArithUnsatAddsRefuted(t *testing.T) {
	const maxConflicts = 10000
	sites := map[string][]string{
		"gifview": {"gif_decode_frame#s19.ret@add", "main#s12.body.s1.else.s0.then.s4.e@add", "main#s12.body.s1.else.s0.else.s1.e@add"},
		"swfplay": {"jpeg_sof#s1.e.0@add", "jpeg_sof#s2.e.0@add", "jpeg_sof#s3.e.a.idx@add"},
		"cwebp":   {"jd_sof#s1.e.0@add", "jd_sof#s2.e.0@add", "jd_sof#s3.e.a.idx@add"},
	}
	jc := dispatch.NewJobCache(dispatch.CacheConfig{})
	for short, names := range sites {
		app, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		discovered, err := app.Triaged()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]discover.Site, len(discovered))
		for _, s := range discovered {
			byName[s.Name] = s
		}
		for _, name := range names {
			site, ok := byName[short+":"+name]
			if !ok {
				t.Errorf("%s: no discovered site %s", short, name)
				continue
			}
			job := dispatch.SiteJob(dispatch.KindHunt, short, site, 21, dispatch.Options{})
			res, err := dispatch.Execute(context.Background(), job, jc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := res.CoreVerdict(); v != core.VerdictUnsat || res.Err != "" {
				t.Errorf("%s: verdict %q (err %q), want unsatisfiable", site.Name, res.Verdict, res.Err)
			}
			if res.Stats.Conflicts > maxConflicts {
				t.Errorf("%s: %d conflicts, want <= %d", site.Name, res.Stats.Conflicts, maxConflicts)
			}
		}
	}
}

// TestArithPruneNeverMasksExposure is the prune-parity check: every arith
// site the triage prunes (statically safe, folded to unsatisfiable without
// dispatching a hunt) is re-hunted here under the NoTriage ablation, and the
// full hunt must never expose an overflow at it. Equality of verdict labels
// is deliberately NOT required — β over-approximates the runtime sanity
// checks, so a full hunt may certify a safe site as sanity-prevented (or
// give up with unknown) where the static certificate says unsatisfiable;
// all of those agree on the property the prune asserts: not exposable.
//
// The per-app site mix covers both verdict divergence cases observed in
// practice. swfplay and cwebp carry the SOF-segment sums whose β the hunt
// refutes in a few hundred milliseconds (TestArithUnsatAddsRefuted). The
// other apps stay out to keep the wave small; dillo's alone can allocate
// gigabytes of guest memory.
func TestArithPruneNeverMasksExposure(t *testing.T) {
	for _, short := range []string{"gifview", "tifthumb", "swfplay", "cwebp"} {
		short := short
		t.Run(short, func(t *testing.T) {
			a, err := apps.ByName(short)
			if err != nil {
				t.Fatal(err)
			}
			on := EvaluateContext(context.Background(), Config{Seed: 21, Arith: true}, []*apps.App{a})
			off := EvaluateContext(context.Background(), Config{Seed: 21, Arith: true, Engine: dispatch.Options{NoTriage: true}}, []*apps.App{a})
			if on[0].Err != nil || off[0].Err != nil {
				t.Fatal(on[0].Err, off[0].Err)
			}
			if len(on[0].Arith) != len(off[0].Arith) {
				t.Fatalf("arith site count differs: %d with triage, %d without", len(on[0].Arith), len(off[0].Arith))
			}
			pruned := 0
			for i, x := range on[0].Arith {
				y := off[0].Arith[i]
				if x.Site.Name != y.Site.Name {
					t.Fatalf("site order differs at %d: %s vs %s", i, x.Site.Name, y.Site.Name)
				}
				if !x.Pruned {
					if x.Verdict != y.Verdict {
						t.Errorf("%s: unpruned verdict changed under ablation: %s vs %s", x.Site.Name, x.Verdict, y.Verdict)
					}
					continue
				}
				pruned++
				if x.Verdict != core.VerdictUnsat {
					t.Errorf("%s: pruned site carries verdict %s, want unsatisfiable", x.Site.Name, x.Verdict)
				}
				if y.Verdict == core.VerdictExposed {
					t.Errorf("%s: triage pruned a site the full hunt exposes (unsound safe verdict)", x.Site.Name)
				}
			}
			if pruned == 0 {
				t.Fatalf("%s: no pruned arith sites; the prune path went untested", short)
			}
		})
	}
}
