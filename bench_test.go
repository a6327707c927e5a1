package diode

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"diode/internal/apps"
	"diode/internal/bv"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/interp"
	"diode/internal/lang"
	"diode/internal/solver"
)

// This file is the benchmark harness that regenerates every data artifact in
// the paper's evaluation section (§5). The paper's figures (1–8) are
// architecture/semantics/algorithm diagrams implemented as code (see
// DESIGN.md); its measured data all lives in Table 1 and Table 2, whose
// columns the benchmarks below reproduce:
//
//	BenchmarkTable1                 – Table 1: per-app site classification
//	BenchmarkTable2Discovery        – Table 2 cols 1–6: per-site hunts,
//	                                  error types, times, enforced X/Y
//	BenchmarkSuccessRateTargetOnly  – Table 2 col 7 (§5.5): 200 inputs from
//	                                  the target constraint alone
//	BenchmarkSuccessRateEnforced    – Table 2 col 8 (§5.6): 200 inputs from
//	                                  target ∧ enforced constraints
//	BenchmarkSamePath               – §5.4: same-path constraint verdicts
//
// plus the DESIGN.md ablations:
//
//	BenchmarkAblationFullPath       – enforce the whole seed path up front
//	BenchmarkAblationNoCompress     – skip Figure 8 branch compression
//	BenchmarkAblationNoRelevance    – keep irrelevant branches in φ
//	BenchmarkAblationSolverMode     – bit-blast-only vs hybrid solving
//
// Run everything with:  go test -bench=. -benchmem
// Each benchmark reports domain-specific metrics via b.ReportMetric.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := harness.Evaluate(harness.Config{Seed: int64(i + 1)}, apps.Paper())
		var exposed, unsat, prevented int
		for _, o := range outcomes {
			if o.Err != nil {
				b.Fatal(o.Err)
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
		b.ReportMetric(float64(exposed), "exposed")
		b.ReportMetric(float64(unsat), "unsat")
		b.ReportMetric(float64(prevented), "prevented")
		if exposed != 14 || unsat != 17 || prevented != 9 {
			b.Fatalf("classification drifted: %d/%d/%d, paper: 14/17/9", exposed, unsat, prevented)
		}
	}
}

func BenchmarkTable2Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := harness.Evaluate(harness.Config{Seed: int64(i + 1)}, apps.Paper())
		var totalEnforced, exposedSites int
		for _, o := range outcomes {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			for _, sr := range o.Result.Sites {
				if sr.Verdict == core.VerdictExposed {
					exposedSites++
					totalEnforced += sr.EnforcedCount()
				}
			}
		}
		b.ReportMetric(float64(exposedSites), "overflows")
		b.ReportMetric(float64(totalEnforced)/float64(exposedSites), "avg-enforced")
	}
}

// sweep runs one harness evaluation and fails the benchmark on any
// application error.
func sweep(b *testing.B, cfg harness.Config, list []*apps.App) []harness.AppOutcome {
	b.Helper()
	outcomes := harness.Evaluate(cfg, list)
	for _, o := range outcomes {
		if o.Err != nil {
			b.Fatal(o.Err)
		}
	}
	return outcomes
}

// appList resolves registry short names.
func appList(b *testing.B, shorts ...string) []*apps.App {
	b.Helper()
	list := make([]*apps.App, len(shorts))
	for i, short := range shorts {
		a, err := apps.ByName(short)
		if err != nil {
			b.Fatal(err)
		}
		list[i] = a
	}
	return list
}

// successRates runs the §5.5 experiment for every exposed site of one
// application and reports the aggregate target-only hit rate.
func successRates(b *testing.B, short string, n int) {
	list := appList(b, short)
	for i := 0; i < b.N; i++ {
		var hits, total int
		for _, rec := range harness.Records(sweep(b, harness.Config{Seed: int64(i + 1), SampleN: n}, list)) {
			for _, s := range rec.Sites {
				hits += s.TargetOnly.Hits
				total += s.TargetOnly.Total
			}
		}
		if total > 0 {
			b.ReportMetric(float64(hits)/float64(total)*100, "target-only-%")
		}
	}
}

func BenchmarkSuccessRateTargetOnly(b *testing.B) {
	for _, short := range []string{"vlc", "swfplay", "cwebp", "imagemagick", "dillo", "gifview", "tifthumb"} {
		b.Run(short, func(b *testing.B) { successRates(b, short, 200) })
	}
}

func BenchmarkSuccessRateEnforced(b *testing.B) {
	// Only the enforcement-requiring sites whose target-only rate is low have
	// a §5.6 column; the harness plans exactly those experiments.
	list := appList(b, "dillo", "vlc")
	for i := 0; i < b.N; i++ {
		for _, rec := range harness.Records(sweep(b, harness.Config{Seed: int64(i + 1), SampleN: 200}, list)) {
			for _, s := range rec.Sites {
				if t := s.TargetEnforced.Total; t > 0 {
					b.ReportMetric(float64(s.TargetEnforced.Hits)/float64(t)*100, rec.App+"-enforced-%")
				}
			}
		}
	}
}

// BenchmarkTableExtended regenerates the extended-suite table and pins its
// classification: 4 exposed, 3 unsatisfiable, 3 prevented across GIFView and
// TIFThumb, with the screen-buffer site requiring at least two enforced
// branches (the Figure 7 loop, not the initial β sample, cracks the new
// formats).
func BenchmarkTableExtended(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := harness.Evaluate(harness.Config{Seed: int64(i + 1)}, apps.Extended())
		var exposed, unsat, prevented, screenEnforced int
		for _, o := range outcomes {
			if o.Err != nil {
				b.Fatal(o.Err)
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
				if sr.Target.Site == "gifview:gif.c@155" {
					screenEnforced = sr.EnforcedCount()
				}
			}
		}
		b.ReportMetric(float64(exposed), "exposed")
		b.ReportMetric(float64(unsat), "unsat")
		b.ReportMetric(float64(prevented), "prevented")
		b.ReportMetric(float64(screenEnforced), "screen-enforced")
		if exposed != 4 || unsat != 3 || prevented != 3 {
			b.Fatalf("extended classification drifted: %d/%d/%d, want 4/3/3", exposed, unsat, prevented)
		}
		if screenEnforced < 2 {
			b.Fatalf("gifview:gif.c@155 exposed after %d enforced branches, want >= 2", screenEnforced)
		}
	}
}

// samePathSat runs the §5.4 experiment over every application and counts
// the paper-exposed sites whose same-path constraint is satisfiable.
func samePathSat(b *testing.B, seed int64) int {
	sat := 0
	for _, o := range sweep(b, harness.Config{Seed: seed, SamePath: true}, apps.All()) {
		for _, s := range o.Record.Sites {
			ps, ok := o.App.PaperFor(s.Site)
			if ok && ps.Class == apps.ClassExposed && s.SamePathSat == solver.Sat.String() {
				sat++
			}
		}
	}
	return sat
}

func BenchmarkSamePath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sat := samePathSat(b, int64(i+1))
		b.ReportMetric(float64(sat), "samepath-sat")
		if sat != 2 {
			b.Fatalf("same-path satisfiable for %d sites, paper: 2", sat)
		}
	}
}

// BenchmarkAblationFullPath measures the alternative the paper argues
// against (§5.4): requiring the overflow on the seed's exact path. Counts
// how many of the 14 exposed sites remain findable.
func BenchmarkAblationFullPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(samePathSat(b, int64(i+1))), "fullpath-findable")
		b.ReportMetric(14, "goal-directed-findable")
	}
}

// ablationSweep runs the paper suite (the ablations quantify the paper's
// design claims, whose baselines are the 14 exposed sites of Table 1).
func ablationSweep(b *testing.B, seed int64, settings dispatch.Options) {
	exposed := 0
	for _, o := range sweep(b, harness.Config{Seed: seed, Engine: settings}, apps.Paper()) {
		for _, sr := range o.Result.Sites {
			if sr.Verdict == core.VerdictExposed {
				exposed++
			}
		}
	}
	b.ReportMetric(float64(exposed), "exposed")
}

func BenchmarkAblationNoCompress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationSweep(b, int64(i+1), dispatch.Options{DisableCompression: true})
	}
}

func BenchmarkAblationNoRelevance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationSweep(b, int64(i+1), dispatch.Options{DisableRelevanceFilter: true})
	}
}

func BenchmarkAblationSolverMode(b *testing.B) {
	modes := []struct {
		name string
		mode solver.Mode
	}{
		{"hybrid", solver.ModeHybrid},
		{"sat-only", solver.ModeSATOnly},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ablationSweep(b, int64(i+1), dispatch.Options{SolverMode: m.mode})
			}
		})
	}
}

// BenchmarkAnalysisOnly isolates stages 1–3 (taint + symbolic extraction),
// the per-application "(A)" component of Table 2's time column.
func BenchmarkAnalysisOnly(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Short, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewAnalyzer(app, core.Options{Seed: 1}).Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Example-style sanity for the benchmark harness itself: the full registry
// (paper + extended) sweeps and renders both table families.
func TestBenchHarnessSmoke(t *testing.T) {
	outcomes := harness.EvaluateAll(harness.Config{Seed: 1})
	if len(outcomes) != len(Applications()) {
		t.Fatalf("%d outcomes, want %d", len(outcomes), len(Applications()))
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	recs := harness.Records(outcomes)
	t1 := Table1(PaperApplications(), recs)
	if len(t1) == 0 {
		t.Fatal("empty Table 1")
	}
	fmt.Println(t1)
	te := TableExtended(ExtendedApplications(), recs)
	if len(te) == 0 {
		t.Fatal("empty extended table")
	}
	fmt.Println(te)
}

// BenchmarkHuntIncremental measures what the incremental solving sessions
// buy: the same hunts run once with one-shot solving (every enforcement
// iteration rebuilds φ′∧β on a fresh CDCL engine and blaster) and once with
// sessions (one persistent engine per hunt, only the newly conjoined branch
// constraint lowered, learned clauses retained). Dillo is the
// enforcement-heavy application — png.c@203 alone conjoins several sanity
// checks whose sparse solutions push every iteration into the CDCL phase —
// so it is where the session machinery works hardest. Verdicts are checked
// equal between the two paths before the speedup is reported.
func BenchmarkHuntIncremental(b *testing.B) {
	list := appList(b, "dillo")
	modes := []struct {
		name string
		mode solver.Mode
	}{
		// sat-only isolates the solver path the sessions optimize: every
		// solve bit-blasts and runs CDCL, so the win is the re-lowering and
		// re-learning the one-shot path repeats. hybrid is the end-to-end
		// default, where concrete search and guest execution dilute it.
		{"sat-only", solver.ModeSATOnly},
		{"hybrid", solver.ModeHybrid},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)

				t0 := time.Now()
				oneShot := sweep(b, harness.Config{Seed: seed,
					Engine: dispatch.Options{SolverMode: m.mode, OneShotSolver: true}}, list)
				oneShotTime := time.Since(t0)

				// The incremental sweep's solver counters, summed over its
				// hunt jobs' results.
				var mu sync.Mutex
				var st solver.Stats
				t0 = time.Now()
				incremental := sweep(b, harness.Config{Seed: seed,
					Engine: dispatch.Options{SolverMode: m.mode},
					Sink: func(ev dispatch.Event) {
						if ev.Type == dispatch.EventFinished {
							mu.Lock()
							st.Add(ev.Result.Stats)
							mu.Unlock()
						}
					}}, list)
				incrementalTime := time.Since(t0)

				for j, sr := range oneShot[0].Result.Sites {
					if ir := incremental[0].Result.Sites[j]; sr.Verdict != ir.Verdict {
						b.Fatalf("%s: session verdict %v != one-shot %v",
							sr.Target.Site, ir.Verdict, sr.Verdict)
					}
				}
				b.ReportMetric(oneShotTime.Seconds()/incrementalTime.Seconds(), "speedup")
				b.ReportMetric(float64(st.ClausesReused), "clauses-reused")
				b.ReportMetric(float64(st.ModelCacheHits), "model-cache-hits")
			}
		})
	}
}

// BenchmarkSuccessRateBatched measures what the compiled execution layer
// buys the §5.5/§5.6 experiments (the workload of the two SuccessRate
// benchmarks above): every exposed site's target-only experiment plus every
// enforcement site's enforced experiment, on the one-shot path
// (core.Options.OneShotExecution — a fresh tree-walking interpreter with
// string-keyed environments per sampled input) versus the batched path (the
// application compiled once, every input executed on one reused slot-indexed
// machine).
//
// Setup (untimed) runs the hunts, samples every experiment's models once and
// generates the input corpus — sampling and generation are solver/format
// work identical on both paths, so the corpus is shared by construction —
// and then verifies row parity through the real Hunter.SuccessRate API: the
// hit/total counts (the table-row rates) from identically seeded one-shot
// and batched hunters must be byte-identical. The timed region executes the
// corpus on each path. Reported metrics:
//
//	exec-speedup — one-shot / batched time over the guest executions, the
//	               component the compiled layer optimizes (the ≥2x claim)
//	e2e-speedup  — same ratio with each path's full SuccessRate calls
//	               (sampling included; enforced-constraint model enumeration
//	               is shared CDCL work, which dilutes this number)
//	hits, total  — aggregate rates, equal on both paths
func BenchmarkSuccessRateBatched(b *testing.B) {
	type item struct {
		app   *apps.App
		site  string
		input []byte
	}
	var (
		corpus       []item
		machines     = map[*apps.App]*interp.Machine{}
		e2eOne, e2eB time.Duration
		hits         int
	)
	list := appList(b, "dillo", "vlc", "gifview", "tifthumb")
	for _, o := range sweep(b, harness.Config{Seed: 1, Parallelism: runtime.GOMAXPROCS(0)}, list) {
		app := o.App
		machines[app] = interp.NewMachine(app.Compiled())
		for _, sr := range o.Result.Sites {
			if sr.Verdict != core.VerdictExposed {
				continue
			}
			constraints := []*bv.Bool{sr.Target.Beta}
			if sr.EnforcedCount() > 0 {
				constraints = append(constraints, core.EnforcedConstraint(sr))
			}
			for _, constraint := range constraints {
				siteOpts := core.Options{Seed: 1}.ForSite(sr.Target.Site)
				oneOpts := siteOpts
				oneOpts.OneShotExecution = true

				// Row parity through the real experiment path, also timed
				// for the end-to-end metric.
				t0 := time.Now()
				oh, ot := core.NewHunter(app, oneOpts).SuccessRate(sr.Target, constraint, 200)
				e2eOne += time.Since(t0)
				t0 = time.Now()
				bh, bt := core.NewHunter(app, siteOpts).SuccessRate(sr.Target, constraint, 200)
				e2eB += time.Since(t0)
				if oh != bh || ot != bt {
					b.Fatalf("%s: batched rate %d/%d != one-shot %d/%d", sr.Target.Site, bh, bt, oh, ot)
				}
				hits += bh

				// Shared corpus: the same models both hunters sampled.
				sol := solver.New(solver.Options{Seed: siteOpts.Seed})
				gen := app.Format.Generator()
				for _, m := range sol.NewSession(constraint).SampleModels(200) {
					input, err := gen.Generate(app.Format.Seed, m)
					if err != nil {
						continue
					}
					corpus = append(corpus, item{app: app, site: sr.Target.Site, input: input})
				}
			}
		}
	}

	triggered := func(out *interp.Outcome, site string) bool {
		for _, ev := range out.Allocs {
			if ev.Site == site && ev.Wrapped {
				return true
			}
		}
		return false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		oneHits := 0
		for _, it := range corpus {
			if triggered(interp.RunTree(it.app.Program, it.input, interp.Options{}), it.site) {
				oneHits++
			}
		}
		oneShot := time.Since(t0)

		t0 = time.Now()
		batHits := 0
		for _, it := range corpus {
			m := machines[it.app]
			m.Reset(it.input, interp.Options{})
			if triggered(m.Run(), it.site) {
				batHits++
			}
		}
		batched := time.Since(t0)

		if oneHits != batHits {
			b.Fatalf("corpus hits diverge: one-shot %d != batched %d", oneHits, batHits)
		}
		b.ReportMetric(oneShot.Seconds()/batched.Seconds(), "exec-speedup")
		b.ReportMetric(e2eOne.Seconds()/e2eB.Seconds(), "e2e-speedup")
		b.ReportMetric(float64(hits), "hits")
		b.ReportMetric(float64(len(corpus)), "total")
	}
}

// BenchmarkDispatchLocal measures what the job-based dispatch layer costs
// over driving the same machinery directly: the full dillo site sweep hunted
// by a sequential loop of per-site Hunters on pre-analyzed targets versus the
// identical batch planned as hunt jobs and run through a one-worker Local
// backend, so both sides hunt at the same concurrency. The backend's
// JobCache is pinned to NoResults so every iteration really executes the
// hunts — with result caching on, the steady state would measure cache
// lookups instead (that speedup is BenchmarkSweepWarmVsCold's subject).
// Analysis memoization stays: the targets both sides hunt are analyzed
// through that cache before the timer starts, as the harness planner does,
// so every iteration — the first included — streams results over a channel
// with a memoized-analysis lookup per job. Verdict parity is asserted each
// iteration. Reported metrics:
//
//	dispatch-vs-direct — wall-clock ratio (≈1 means the job layer is free)
//	delta-us/job       — signed per-job wall-clock delta, dispatch minus
//	                     direct: the cost of job records, the analysis cache
//	                     lookup and the result stream. Near zero in the
//	                     cache-warm steady state; negative values are
//	                     scheduling noise (the dispatch run happened to win
//	                     the ratio race), not real savings
func BenchmarkDispatchLocal(b *testing.B) {
	app, err := apps.ByName("dillo")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Seed: 1}
	backend := &dispatch.Local{
		Workers: 1,
		Cache:   dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true}),
	}
	targets, err := backend.Cache.Targets(context.Background(), app, opts.Settings)
	if err != nil {
		b.Fatal(err)
	}
	jobs := HuntJobsFor(app, opts, targets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		direct := make([]*core.SiteResult, len(targets))
		for j, t := range targets {
			direct[j] = core.NewHunter(app, opts.ForSite(t.Site)).Hunt(t)
		}
		directTime := time.Since(t0)

		t0 = time.Now()
		results, err := dispatch.Collect(context.Background(), backend, jobs)
		dispatchTime := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}

		byID := make(map[int]dispatch.Result, len(results))
		for _, r := range results {
			if r.Err != "" {
				b.Fatalf("job %d failed: %s", r.JobID, r.Err)
			}
			byID[r.JobID] = r
		}
		for j, sr := range direct {
			if got := byID[j]; got.Verdict != sr.Verdict.String() {
				b.Fatalf("%s: dispatched verdict %s != direct %v", sr.Target.Site, got.Verdict, sr.Verdict)
			}
		}
		b.ReportMetric(dispatchTime.Seconds()/directTime.Seconds(), "dispatch-vs-direct")
		b.ReportMetric((dispatchTime-directTime).Seconds()*1e6/float64(len(jobs)), "delta-us/job")
	}
}

// benchNormalize zeroes the measured wall-clock fields so cold and warm
// sweeps compare on content (a cached result replays its stored DiscoveryMS,
// but the per-sweep AnalysisMS is always measured fresh).
func benchNormalize(recs []*AppRecord) []*AppRecord {
	out := make([]*AppRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.AnalysisMS = 0
		c.Sites = append([]SiteRecord(nil), r.Sites...)
		for j := range c.Sites {
			c.Sites[j].DiscoveryMS = 0
		}
		out[i] = &c
	}
	return out
}

// BenchmarkSweepWarmVsCold measures what the content-addressed result cache
// buys on repeated sweeps: the full suite — Table 1 classification, Table 2
// experiments, same-path, extended apps — run cold on a fresh JobCache and
// then warm on the same cache. The warm sweep must perform zero executions
// and zero Analyzer runs (asserted via the cache counters) and render Table
// 1, Table 2 and the extended table byte-identical to the cold run. Reported
// metrics:
//
//	cold-vs-warm — wall-clock ratio (how many times faster the warm sweep is)
//	warm-ms      — absolute warm sweep time (the floor repeated sweeps pay)
func BenchmarkSweepWarmVsCold(b *testing.B) {
	list := apps.All()
	for i := 0; i < b.N; i++ {
		jc := dispatch.NewJobCache(dispatch.CacheConfig{})
		cfg := harness.Config{Seed: int64(i + 1), SampleN: 10, SamePath: true, Cache: jc}

		t0 := time.Now()
		coldOut := harness.Evaluate(cfg, list)
		cold := time.Since(t0)
		for _, o := range coldOut {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
		coldStats := jc.Stats()

		t0 = time.Now()
		warmOut := harness.Evaluate(cfg, list)
		warm := time.Since(t0)
		for _, o := range warmOut {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
		warmStats := jc.Stats()
		if got := warmStats.Misses - coldStats.Misses; got != 0 {
			b.Fatalf("warm sweep executed %d jobs, want 0", got)
		}
		if got := warmStats.AnalysisRuns - coldStats.AnalysisRuns; got != 0 {
			b.Fatalf("warm sweep ran the Analyzer %d times, want 0", got)
		}

		coldRecs := benchNormalize(harness.Records(coldOut))
		warmRecs := benchNormalize(harness.Records(warmOut))
		if a, g := Table1(apps.Paper(), coldRecs), Table1(apps.Paper(), warmRecs); a != g {
			b.Fatalf("warm Table 1 differs from cold:\n%s\nvs\n%s", a, g)
		}
		if a, g := Table2(apps.Paper(), coldRecs), Table2(apps.Paper(), warmRecs); a != g {
			b.Fatalf("warm Table 2 differs from cold:\n%s\nvs\n%s", a, g)
		}
		if a, g := TableExtended(apps.Extended(), coldRecs), TableExtended(apps.Extended(), warmRecs); a != g {
			b.Fatalf("warm extended table differs from cold:\n%s\nvs\n%s", a, g)
		}

		b.ReportMetric(cold.Seconds()/warm.Seconds(), "cold-vs-warm")
		b.ReportMetric(warm.Seconds()*1e3, "warm-ms")
	}
}

// BenchmarkSweepParallel measures the sweep's wall-clock speedup: the full
// application suite hunted sequentially (one worker, sequential site hunts)
// versus fully fanned out (apps × sites concurrent). Per-site seed
// derivation guarantees both schedules produce identical verdicts, so the
// speedup metric compares equal work.
func BenchmarkSweepParallel(b *testing.B) {
	// Floor the pool at 2 so the concurrent path runs even on a single-core
	// machine (where the speedup metric will sit near 1).
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)

		t0 := time.Now()
		seqOut := harness.EvaluateAll(harness.Config{Seed: seed, Workers: 1})
		seq := time.Since(t0)

		t0 = time.Now()
		parOut := harness.EvaluateAll(harness.Config{Seed: seed, Parallelism: workers})
		par := time.Since(t0)

		for j := range seqOut {
			if seqOut[j].Err != nil || parOut[j].Err != nil {
				b.Fatal(seqOut[j].Err, parOut[j].Err)
			}
			for k, sr := range seqOut[j].Result.Sites {
				if pr := parOut[j].Result.Sites[k]; sr.Verdict != pr.Verdict {
					b.Fatalf("%s: parallel verdict %v != sequential %v", sr.Target.Site, pr.Verdict, sr.Verdict)
				}
			}
		}
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
		b.ReportMetric(float64(workers), "workers")
	}
}

// BenchmarkSampleModels measures what restart-based sampling buys the
// §5.5/§5.6 model-enumeration workload: the real experiment constraints
// (every exposed site's target constraint, plus the target∧enforced
// conjunction where enforcement found one) are each sampled for 200 models
// under the default restart strategy and under the blocking-clause ablation
// (solver.SamplingBlocking), on identically seeded solvers. ModeSATOnly
// forces every draw through the CDCL engine — the component the strategies
// differ in; the hybrid default's concrete phase would serve most draws
// before either strategy runs. Model counts are checked equal between the
// strategies before the speedup is reported (both certify exhaustion, so on
// exhaustible constraints the counts must agree exactly).
func BenchmarkSampleModels(b *testing.B) {
	type job struct {
		f    *bv.Bool
		seed int64
	}
	var jobs []job
	list := appList(b, "dillo", "vlc", "gifview")
	for _, o := range sweep(b, harness.Config{Seed: 1, Parallelism: runtime.GOMAXPROCS(0)}, list) {
		for _, sr := range o.Result.Sites {
			if sr.Verdict != core.VerdictExposed {
				continue
			}
			seed := core.Options{Seed: 1}.ForSite(sr.Target.Site).Seed
			jobs = append(jobs, job{sr.Target.Beta, seed})
			if sr.EnforcedCount() > 0 {
				jobs = append(jobs, job{core.EnforcedConstraint(sr), seed})
			}
		}
	}
	const k = 200
	sample := func(strategy solver.Sampling) (time.Duration, []int) {
		t0 := time.Now()
		counts := make([]int, len(jobs))
		for i, j := range jobs {
			s := solver.New(solver.Options{Seed: j.seed, Mode: solver.ModeSATOnly, Sampling: strategy})
			counts[i] = len(s.SampleModels(j.f, k))
		}
		return time.Since(t0), counts
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockingTime, blockingCounts := sample(solver.SamplingBlocking)
		restartTime, restartCounts := sample(solver.SamplingRestart)
		models := 0
		for j := range jobs {
			if restartCounts[j] != blockingCounts[j] {
				b.Fatalf("constraint %d: restart sampled %d models, blocking %d",
					j, restartCounts[j], blockingCounts[j])
			}
			models += restartCounts[j]
		}
		b.ReportMetric(blockingTime.Seconds()/restartTime.Seconds(), "speedup")
		b.ReportMetric(float64(len(jobs)), "constraints")
		b.ReportMetric(float64(models), "models")
	}
}

// BenchmarkPortfolioSolve measures portfolio racing on solves hard enough to
// outlive the probe budget: 16-bit semiprime factoring (the hardest formula
// shape the bit-blaster produces — no propagation shortcut reveals the
// factors) under a conflict budget the single engine usually cannot meet.
// Reported metrics are the decided fraction under each configuration — the
// portfolio's value is turning budget-bound Unknowns into answers, not
// making easy solves faster — and the volume of learnt clauses folded back.
func BenchmarkPortfolioSolve(b *testing.B) {
	semiprimes := []uint64{
		1021 * 1019, 1031 * 1033, 1049 * 1051, 1061 * 1063,
		1091 * 1087, 1097 * 1093, 1109 * 1103, 1123 * 1117,
	}
	formula := func(i int, c uint64) *bv.Bool {
		x := bv.Var(16, fmt.Sprintf("bp_x%d", i))
		y := bv.Var(16, fmt.Sprintf("bp_y%d", i))
		prod := bv.Mul(bv.ZExt(32, x), bv.ZExt(32, y))
		return bv.AndB(bv.Eq(prod, bv.Const(32, c)),
			bv.AndB(bv.Ugt(x, bv.Const(16, 1)), bv.Ugt(y, bv.Const(16, 1))))
	}
	run := func(portfolio int) (time.Duration, int, solver.Stats) {
		t0 := time.Now()
		decided := 0
		agg := solver.Stats{}
		for i, c := range semiprimes {
			s := solver.New(solver.Options{
				Seed: int64(i + 1), Mode: solver.ModeSATOnly,
				MaxConflicts: 1000, Portfolio: portfolio,
			})
			if _, v := s.Solve(formula(i, c)); v != solver.Unknown {
				decided++
			}
			agg.Add(s.Snapshot())
		}
		return time.Since(t0), decided, agg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		singleTime, singleDecided, _ := run(0)
		portfolioTime, portfolioDecided, st := run(4)
		b.ReportMetric(float64(singleDecided)/float64(len(semiprimes)), "decided-single")
		b.ReportMetric(float64(portfolioDecided)/float64(len(semiprimes)), "decided-portfolio")
		b.ReportMetric(float64(st.PortfolioRaces), "races")
		b.ReportMetric(float64(st.LearntsShared), "learnts-shared")
		b.ReportMetric(portfolioTime.Seconds()/singleTime.Seconds(), "time-ratio")
	}
}

// BenchmarkMachineSteps measures raw dispatch-loop throughput: a pure
// arithmetic fuel-burner guest (no memory traffic, no input reads) run to
// fuel exhaustion on one reused Machine. steps/sec is the interpreter's
// step-retire rate, and allocs/op must be zero — the warm plain-mode hot
// path performs no allocation (audit with -benchmem).
func BenchmarkMachineSteps(b *testing.B) {
	prog := lang.NewProgram("stepburner")
	prog.AddFunc(lang.Fn("main", nil,
		lang.Let("i", lang.U32(0)),
		lang.Let("x", lang.U32(1)),
		lang.Loop("burn", lang.Ult(lang.V("i"), lang.U32(0xFFFFFFFF)),
			lang.Let("x", lang.Add(lang.V("x"), lang.V("i"))),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
	))
	if err := prog.Finalize(); err != nil {
		b.Fatal(err)
	}
	const fuel = 1 << 20
	m := interp.NewMachine(interp.Compile(prog))
	opts := interp.Options{Fuel: fuel}
	m.Reset(nil, opts)
	if out := m.Run(); out.Kind != interp.OutFuel { // warm-up + sanity
		b.Fatalf("fuel burner finished: %v", out.Kind)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(nil, opts)
		if out := m.Run(); out.Kind != interp.OutFuel {
			b.Fatal("fuel burner finished early")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fuel)*float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkGuestExec measures per-app guest-execution latency: every
// registered application's seed-derived input batch run on the reused
// direct-threaded Machine, against the tree-walking oracle on the identical
// batch (timed once during setup). Reported metrics:
//
//	threaded-vs-tree — tree-walker / threaded wall clock on the same batch;
//	                   CI asserts > 1.0 so dispatch regressions fail loudly
//	run-us           — threaded per-execution latency
//
// allocs/op must be zero: plain-mode runs on a warm Machine do not allocate.
// The batch is executed a fixed number of times per benchmark iteration so
// the speedup metric is stable even at -benchtime=1x.
func BenchmarkGuestExec(b *testing.B) {
	const reps = 20
	for _, app := range apps.All() {
		app := app
		b.Run(app.Short, func(b *testing.B) {
			seed := app.Format.Seed
			corrupt := append([]byte(nil), seed...)
			for i := len(corrupt) / 4; i < len(corrupt)/2; i++ {
				corrupt[i] = 0xFF
			}
			inputs := [][]byte{seed, corrupt, seed[:len(seed)/2], nil}
			opts := interp.Options{}
			m := interp.NewMachine(app.Compiled())
			for _, in := range inputs { // warm the machine's reusable storage
				m.Reset(in, opts)
				m.Run()
			}
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				for _, in := range inputs {
					interp.RunTree(app.Program, in, opts)
				}
			}
			tree := time.Since(t0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < reps; r++ {
					for _, in := range inputs {
						m.Reset(in, opts)
						m.Run()
					}
				}
			}
			b.StopTimer()
			perIter := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(tree.Seconds()/perIter, "threaded-vs-tree")
			b.ReportMetric(perIter*1e6/float64(reps*len(inputs)), "run-us")
		})
	}
}

// BenchmarkTriagePrune measures the static value-range triage on the
// extended arith-hunting sweep: the same two-application arith wave runs
// with the triage enabled (statically safe sites fold to unsatisfiable
// without dispatching a hunt) and under the NoTriage ablation (every arith
// site hunts). Reported metrics: pruned-hunts (how many solver sessions the
// triage removed) and no-triage-time-ratio (ablation wall-clock over triaged
// wall-clock). The application pair is chosen to keep the ablation wave
// affordable — cwebp's hard-unsatisfiable addition constraints cost the
// solver minutes to certify, which is exactly the cost profile the triage
// exists to avoid, but too slow for a smoke benchmark.
func BenchmarkTriagePrune(b *testing.B) {
	list := appList(b, "gifview", "tifthumb")
	for i := 0; i < b.N; i++ {
		start := time.Now()
		on := harness.Evaluate(harness.Config{Seed: 21, Arith: true}, list)
		triagedDur := time.Since(start)
		start = time.Now()
		off := harness.Evaluate(harness.Config{Seed: 21, Arith: true,
			Engine: dispatch.Options{NoTriage: true}}, list)
		ablationDur := time.Since(start)
		pruned := 0
		for _, o := range on {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			for _, as := range o.Arith {
				if as.Pruned {
					pruned++
				}
			}
		}
		for _, o := range off {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			for _, as := range o.Arith {
				if as.Pruned {
					b.Fatalf("%s: pruned site under the NoTriage ablation", as.Site.Name)
				}
			}
		}
		if pruned == 0 {
			b.Fatal("triage pruned no arith hunts; the benchmark measures nothing")
		}
		b.ReportMetric(float64(pruned), "pruned-hunts")
		b.ReportMetric(ablationDur.Seconds()/triagedDur.Seconds(), "no-triage-time-ratio")
	}
}
