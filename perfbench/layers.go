package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"diode/internal/apps"
	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
)

// jobKinds are the dispatch job kinds a sweep plans.
var jobKinds = []dispatch.Kind{dispatch.KindHunt, dispatch.KindSamePath, dispatch.KindSuccessRate}

// overheadJobs is how many of the cheapest hunts the dispatch-overhead
// comparison times, and overheadReps how often each side runs per job.
const (
	overheadJobs = 16
	overheadReps = 5
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics fills the per-layer metrics of a traced run: set-up by
// layer, counters and job spans of the traced passes, direct timings of
// layer entry points, CPU-profile shares, and the tracing overhead. It
// writes the spans and the profile under outDir.
func (r *runner) layerMetrics(ctx context.Context, e *env, res *result, sts []setupTimes,
	warmup *pass, untraced, traced []*pass) error {
	m := res.metrics
	setupMS := func(f func(setupTimes) time.Duration) float64 {
		return medianOf(sts, func(s setupTimes) float64 { return ms(f(s)) })
	}
	m["apps.compile_ms"] = setupMS(func(s setupTimes) time.Duration { return s.compile })
	m["cache.fingerprint_ms"] = setupMS(func(s setupTimes) time.Duration { return s.fingerprint })
	m["discover.ms"] = setupMS(func(s setupTimes) time.Duration { return s.discover })
	m["absint.triage_ms"] = setupMS(func(s setupTimes) time.Duration { return s.triage })
	m["discover.probe_ms"] = setupMS(func(s setupTimes) time.Duration { return s.probe })
	m["cache.fill_ms"] = setupMS(func(s setupTimes) time.Duration { return s.fill })
	m["discover.sites"] = float64(sts[0].sites)
	m["absint.safe_sites"] = float64(sts[0].safe)

	// Counters are a pure function of the job records, so any traced pass
	// gives them; the last one is used.
	last := traced[len(traced)-1]
	col := last.col
	st := col.stats
	m["core.hunt_runs"] = float64(col.runs)
	m["core.hunt_enforced"] = float64(col.enf)
	m["solver.sat_solves"] = float64(st.SATSolves)
	m["solver.concrete_hits"] = float64(st.ConcreteHits)
	m["solver.concrete_frac"] = ratio(st.ConcreteHits, st.ConcreteHits+st.SATSolves)
	m["solver.unsat_results"] = float64(st.UnsatResults)
	m["solver.unknown_out"] = float64(st.UnknownOut)
	m["solver.clauses_reused"] = float64(st.ClausesReused)
	m["solver.model_cache_hits"] = float64(st.ModelCacheHits)
	m["solver.restart_samples"] = float64(st.RestartSamples)
	m["solver.duplicate_models"] = float64(st.DuplicateModels)
	m["solver.dup_frac"] = ratio(st.DuplicateModels, st.RestartSamples+st.DuplicateModels)
	m["solver.blocking_fallbacks"] = float64(st.BlockingFallbacks)
	m["inputgen.gen_failures"] = float64(st.GenFailures)
	c := warmup.counts()
	m["harness.trigger_rate"] = ratio(c.hits, c.total)
	m["dispatch.jobs"] = float64(c.jobs)
	m["dispatch.failed_frac"] = ratio(c.failedJobs, c.jobs)
	cs := last.cache
	m["cache.hits"] = float64(cs.Hits)
	m["cache.misses"] = float64(cs.Misses)
	m["cache.stores"] = float64(cs.Stores)
	m["cache.corrupt"] = float64(cs.CorruptEntries)
	m["cache.analysis_runs"] = float64(cs.AnalysisRuns)
	m["cache.analysis_hits"] = float64(cs.AnalysisHits)
	m["cache.hit_frac"] = ratio(int(cs.Hits), int(cs.Hits+cs.Misses))

	// Job spans per pass: per-kind sum and median, hunt verdict latency, and
	// the planner's share (the sweep minus the union of job spans).
	perPass := func(f func(p *pass) float64) float64 { return medianOf(traced, f) }
	for _, k := range jobKinds {
		m["dispatch.job_ms."+string(k)+".sum"] = perPass(func(p *pass) float64 { return sumMS(spansOf(p, k)) })
		m["dispatch.job_ms."+string(k)+".p50"] = perPass(func(p *pass) float64 { return quantile(spansOf(p, k), 0.5) })
	}
	// Hunt verdict latency from the Sink spans; p80 is the highest
	// percentile with at least 10 of paper-sweep's 50 hunts beyond it.
	m["dispatch.verdict_ms_p50"] = perPass(func(p *pass) float64 { return quantile(spansOf(p, dispatch.KindHunt), 0.5) })
	m["dispatch.verdict_ms_p80"] = perPass(func(p *pass) float64 { return quantile(spansOf(p, dispatch.KindHunt), 0.8) })
	m["harness.plan_ms"] = perPass(func(p *pass) float64 { return ms(p.wall - spanUnion(p.col.spans)) })

	// Runtime counters per pass, from the untraced passes (profiling
	// allocates too).
	m["runtime.alloc_mb"] = medianOf(untraced, func(p *pass) float64 { return float64(p.allocB) / (1 << 20) })
	m["runtime.mallocs"] = medianOf(untraced, func(p *pass) float64 { return float64(p.mallocs) })
	m["runtime.gc_cycles"] = medianOf(untraced, func(p *pass) float64 { return float64(p.gcCycles) })
	m["runtime.gc_pause_ms"] = medianOf(untraced, func(p *pass) float64 { return ms(p.gcPause) })

	m["trace.sweep_s"] = perPass(func(p *pass) float64 { return p.wall.Seconds() })
	m["trace.overhead_s"] = m["trace.sweep_s"] - m["sweep_s"]

	if err := r.directTimings(ctx, e, m, last); err != nil {
		return err
	}

	// CPU shares by leaf-frame package.
	known := map[string]bool{}
	for _, s := range r.spec.PerLayer {
		if pkg, ok := strings.CutPrefix(s.Name, "cpu."); ok && pkg != "samples" {
			known[pkg] = true
			m[s.Name] = 0
		}
	}
	var total int64
	for _, p := range traced {
		for _, s := range p.samples {
			total += s.count
		}
	}
	for _, p := range traced {
		for _, s := range p.samples {
			m["cpu."+cpuCategory(s.leaf, known)] += 100 * float64(s.count) / float64(max(total, 1))
		}
	}
	m["cpu.samples"] = float64(total)
	top, share := "", 0.0
	for pkg := range known {
		if v := m["cpu."+pkg]; v > share && pkg != "other" {
			top, share = pkg, v
		}
	}
	fmt.Printf("largest CPU share: %s %.1f%% of %d samples; tracing overhead %+.3fs on a %.3fs sweep\n",
		top, share, total, m["trace.overhead_s"], m["sweep_s"])

	return r.writeTrace(e, traced, sts)
}

// spansOf returns a pass's job durations of one kind, in ms.
func spansOf(p *pass, k dispatch.Kind) []float64 {
	var out []float64
	for _, s := range p.col.spans {
		if s.kind == k {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

func sumMS(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spanUnion is the total time covered by at least one span.
func spanUnion(spans []jobSpan) time.Duration {
	s := append([]jobSpan(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, end time.Duration
	for _, sp := range s {
		if sp.start > end {
			total += sp.end - sp.start
			end = sp.end
		} else if sp.end > end {
			total += sp.end - end
			end = sp.end
		}
	}
	return total
}

// directTimings times layer entry points called from the benchmark on the
// same inputs the sweep used: the Analyzer on every program a pass
// analyzes, dispatch.Execute against a bare Hunter on the cheapest hunts,
// the Result codec, the disk store, and — on warm-resweep, where jobs emit
// no started event — dispatch.Execute serving each job from the store.
func (r *runner) directTimings(ctx context.Context, e *env, m map[string]float64, last *pass) error {
	col := last.col
	byShort := map[string]*apps.App{}
	for _, a := range e.list {
		byShort[a.Short] = a
	}
	opts := dispatch.Options{}

	// core.analyze_ms: every program one pass analyzes.
	var progs []*apps.App
	for _, a := range e.list {
		progs = append(progs, a)
		if !e.w.probes {
			continue
		}
		sites, err := a.Triaged()
		if err != nil {
			return err
		}
		for _, s := range sites {
			if s.Kind == discover.KindArith && s.Triage != discover.TriageSafe {
				p, err := a.Probe(s.Name)
				if err != nil {
					return err
				}
				progs = append(progs, p)
			}
		}
	}
	if int64(len(progs)) != last.cache.AnalysisRuns {
		return fmt.Errorf("a pass analyzes %d programs, the direct timing covers %d", last.cache.AnalysisRuns, len(progs))
	}
	var analyze time.Duration
	for _, a := range progs {
		t := time.Now()
		if _, err := core.NewAnalyzer(a, opts.Core(0)).AnalyzeContext(ctx); err != nil {
			return fmt.Errorf("analyze %s: %w", a.Short, err)
		}
		analyze += time.Since(t)
	}
	m["core.analyze_ms"] = ms(analyze)
	m["core.analyze_programs"] = float64(len(progs))

	// dispatch.overhead_us: Execute versus NewHunter+HuntContext on the same
	// Target, over the cheapest alloc hunts of the traced pass.
	type hunt struct {
		job dispatch.Job
		res dispatch.Result
	}
	var hunts []hunt
	for i, j := range col.jobs {
		if j.Kind == dispatch.KindHunt && j.SiteKind != string(discover.KindArith) {
			hunts = append(hunts, hunt{job: j, res: col.results[i]})
		}
	}
	sort.Slice(hunts, func(i, j int) bool {
		if hunts[i].res.Runs != hunts[j].res.Runs {
			return hunts[i].res.Runs < hunts[j].res.Runs
		}
		return hunts[i].job.Site < hunts[j].job.Site
	})
	if len(hunts) > overheadJobs {
		hunts = hunts[:overheadJobs]
	}
	jc := dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true})
	var deltas []float64
	for _, h := range hunts {
		app := byShort[h.job.App]
		targets, err := jc.Targets(ctx, app, h.job.Opts)
		if err != nil {
			return err
		}
		var t *core.Target
		for _, cand := range targets {
			if cand.Site == h.job.Site {
				t = cand
			}
		}
		if t == nil {
			return fmt.Errorf("no target %s", h.job.Site)
		}
		best := [2]time.Duration{1 << 62, 1 << 62}
		for rep := 0; rep < overheadReps; rep++ {
			start := time.Now()
			if _, err := dispatch.Execute(ctx, h.job, jc, nil); err != nil {
				return err
			}
			best[0] = min(best[0], time.Since(start))
			start = time.Now()
			core.NewHunter(app, h.job.Opts.Core(h.job.Seed)).HuntContext(ctx, t)
			best[1] = min(best[1], time.Since(start))
		}
		deltas = append(deltas, us(best[0]-best[1]))
	}
	m["dispatch.overhead_us"] = median(deltas)

	// dispatch.codec_us: one Result's JSON encode+decode, over every result
	// of the traced pass.
	const codecReps = 20
	start := time.Now()
	for rep := 0; rep < codecReps; rep++ {
		for _, r := range col.results {
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			var back dispatch.Result
			if err := json.Unmarshal(b, &back); err != nil {
				return err
			}
		}
	}
	m["dispatch.codec_us"] = us(time.Since(start)) / float64(max(1, codecReps*len(col.results)))

	m["cache.store_get_us"] = 0
	if !e.w.warm {
		return nil
	}
	// cache.store_get_us: one framed, CRC-checked read of a stored result.
	store := cache.NewStore(e.store)
	start = time.Now()
	for _, j := range col.jobs {
		if _, status := store.Get(dispatch.JobKey(byShort[j.App].Fingerprint(), j)); status != cache.DiskHit {
			return fmt.Errorf("store entry for %s %s: status %v", j.Kind, j.Site, status)
		}
	}
	m["cache.store_get_us"] = us(time.Since(start)) / float64(max(1, len(col.jobs)))

	// Warm jobs emit only a cache-hit event, so their service time comes
	// from Execute on a fresh store-backed cache, one job at a time.
	wjc := dispatch.NewJobCache(dispatch.CacheConfig{Dir: e.store})
	for _, a := range e.list {
		if _, err := wjc.Targets(ctx, a, opts); err != nil {
			return err
		}
	}
	perKind := map[dispatch.Kind][]float64{}
	for _, j := range col.jobs {
		start := time.Now()
		r, err := dispatch.Execute(ctx, j, wjc, nil)
		if err != nil || !r.Cached {
			return fmt.Errorf("warm execute %s %s: cached=%v err=%v", j.Kind, j.Site, r.Cached, err)
		}
		perKind[j.Kind] = append(perKind[j.Kind], ms(time.Since(start)))
	}
	for _, k := range jobKinds {
		m["dispatch.job_ms."+string(k)+".sum"] = sumMS(perKind[k])
		m["dispatch.job_ms."+string(k)+".p50"] = quantile(perKind[k], 0.5)
	}
	return nil
}

// writeTrace writes the run's spans (set-up layers, sweeps, jobs) as JSON
// lines and the CPU profile, under outDir.
func (r *runner) writeTrace(e *env, traced []*pass, sts []setupTimes) error {
	type span struct {
		Name    string  `json:"name"`
		Parent  string  `json:"parent,omitempty"`
		Pass    int     `json:"pass"`
		StartMS float64 `json:"startMS"`
		EndMS   float64 `json:"endMS"`
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i, s := range sts {
		for _, l := range []struct {
			name string
			d    time.Duration
		}{{"setup", s.total}, {"apps.compile", s.compile}, {"cache.fingerprint", s.fingerprint},
			{"discover", s.discover}, {"absint.triage", s.triage}, {"discover.probe", s.probe}, {"cache.fill", s.fill}} {
			parent := "setup"
			if l.name == "setup" {
				parent = ""
			}
			if err := enc.Encode(span{Name: l.name, Parent: parent, Pass: -1 - i, EndMS: ms(l.d)}); err != nil {
				return err
			}
		}
	}
	for i, p := range traced {
		if err := enc.Encode(span{Name: "sweep", Pass: i, EndMS: ms(p.wall)}); err != nil {
			return err
		}
		for _, s := range p.col.spans {
			if err := enc.Encode(span{Name: "job:" + string(s.kind), Parent: "sweep", Pass: i,
				StartMS: ms(s.start), EndMS: ms(s.end)}); err != nil {
				return err
			}
		}
	}
	base := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d", r.w.name, r.seed))
	if err := os.WriteFile(base+".jsonl", []byte(b.String()), 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(base + ".pprof"); err != nil {
		return err
	}
	if err := os.MkdirAll(base+".pprof", 0o755); err != nil {
		return err
	}
	for i, p := range traced {
		if err := os.WriteFile(filepath.Join(base+".pprof", fmt.Sprintf("pass-%03d.pprof", i)), p.profile, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("trace: spans in %s.jsonl, CPU profiles of the traced passes in %s.pprof/\n", base, base)
	return nil
}
