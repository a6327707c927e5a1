// Package harness orchestrates the paper's full evaluation: it plans the
// sweep — every benchmark application's per-site hunts, the §5.4 same-path
// experiment and the §5.5/§5.6 success-rate experiments — as dispatch Jobs,
// runs them on a Backend (in-process pool or spawned worker processes; the §4
// work-queue role), and folds the streamed Results into the records the table
// renderers consume. Verdicts and rates are a pure function of the job
// records, so every backend and worker count renders byte-identical tables.
package harness

import (
	"context"
	"fmt"
	"time"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
	"diode/internal/queue"
	"diode/internal/report"
)

// Config controls an evaluation sweep.
type Config struct {
	// Seed is the run seed. Each job derives its seed from it with
	// dispatch.SiteJob — the application's base seed, then the site's — so
	// an application's verdicts do not depend on which other applications
	// are in the sweep or in what order they appear.
	Seed int64
	// SampleN is the number of generated inputs per success-rate experiment
	// (the paper uses 200). Zero disables the experiments.
	SampleN int
	// SamePath enables the §5.4 same-path satisfiability experiment.
	SamePath bool
	// Workers bounds analysis parallelism and sizes the default Local
	// backend (see Backend). Zero means one worker per application.
	Workers int
	// Parallelism multiplies the default Local backend's pool so a sweep
	// runs apps × sites concurrently. Verdicts are identical at any setting.
	// No command sets it (diode-tables -parallel sets Workers); it stays
	// only because the perfbench sweep benchmark names it.
	Parallelism int
	// Arith extends the sweep to the discovered arith-node surface: after
	// the alloc waves, every discovered arith site is hunted end-to-end via
	// the probe transformation (dispatch runs the pipeline on the
	// probe-instrumented program). Sites the static triage proves safe are
	// pre-folded as unsatisfiable without planning a job — unless
	// Engine.NoTriage, which hunts them all. Arith outcomes are reported
	// separately (AppOutcome.Arith) and never enter the curated tables.
	Arith bool
	// Engine is the serializable pipeline settings (ablation hooks) every
	// planned job carries; seeds are derived per job from Seed.
	Engine dispatch.Options
	// Backend executes the planned jobs. Nil means a dispatch.Local pool
	// sized Workers × Parallelism (with the zero-value defaults above).
	Backend dispatch.Backend
	// Sink receives progress events from the default Local backend. It is
	// ignored when Backend is set — construct that backend with its own
	// sink.
	Sink dispatch.Sink
	// Cache is the job cache shared by the planner's in-process analysis
	// and the default Local backend. Analyses are memoized only in memory:
	// passing the same cache to repeated EvaluateContext calls skips the
	// Analyzer, while a fresh cache — a new process, even one pointed at a
	// filled -cache-dir — analyzes every application again. Hunts are
	// skipped only for results in the cache's disk store. Nil means a fresh
	// store-less cache per evaluation. It is not handed to an explicitly
	// configured Backend — construct that backend with its own cache
	// settings (the planner still analyzes through it in-process).
	Cache *dispatch.JobCache
}

// backend resolves the configured or default backend; the default Local
// pool shares the evaluation's job cache, so the planner's analysis and the
// pool's job execution never derive the same targets twice.
func (cfg Config) backend(apps int, jc *dispatch.JobCache) dispatch.Backend {
	if cfg.Backend != nil {
		return cfg.Backend
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = apps
	}
	sites := cfg.Parallelism
	if sites < 1 {
		sites = 1
	}
	return &dispatch.Local{Workers: workers * sites, Sink: cfg.Sink, Cache: jc}
}

// ArithSite is the outcome of one arith-site hunt in a Config.Arith sweep.
type ArithSite struct {
	// Site is the arith site's discovery record (with triage annotations
	// unless the sweep ran under NoTriage).
	Site discover.Site
	// Verdict is the hunt verdict. Pruned sites read unsatisfiable.
	Verdict core.Verdict
	// ErrorType is set for exposed sites.
	ErrorType string
	// Pruned reports the site was folded from its safe triage verdict
	// without planning a job.
	Pruned bool
	// Err reports a site whose probe hunt could not run — typically an
	// arith node the seed input never reaches, which the probe pipeline
	// surfaces as a missing target site. Arith errors are per-site and
	// deliberately do not fail the application's sweep.
	Err string
}

// AppOutcome bundles an application's engine result with its render record.
type AppOutcome struct {
	App    *apps.App
	Result *core.AppResult
	Record *report.AppRecord
	// Arith holds the extended arith-surface outcomes of a Config.Arith
	// sweep, in discovery order; nil otherwise.
	Arith []ArithSite
	Err   error
}

// appPlan is the planner's working state for one application: the locally
// analyzed targets (the job planner needs the site list and the folder needs
// the Targets for reconstructed results) plus the folded outputs.
type appPlan struct {
	app      *apps.App
	targets  []*core.Target
	analysis time.Duration
	err      error

	result *core.AppResult
	record *report.AppRecord
	arith  []ArithSite
}

// siteRef addresses one site of one planned application.
type siteRef struct {
	plan *appPlan
	site int
}

// wave is one batch of planned jobs plus, indexed by job ID, the site each
// result folds into.
type wave struct {
	jobs []dispatch.Job
	refs []siteRef
}

// add plans a job for one site of an application under the next job ID.
func (w *wave) add(p *appPlan, site int, j dispatch.Job) {
	j.ID = len(w.refs)
	w.jobs = append(w.jobs, j)
	w.refs = append(w.refs, siteRef{plan: p, site: site})
}

// EvaluateContext runs the configured evaluation over the given
// applications (apps.All() for the whole benchmark suite) and returns
// per-application outcomes in list order. It plans the sweep as dispatch
// jobs, runs them on the configured backend in three waves — hunts;
// same-path + target-only rates; enforced rates (which depend on the
// target-only outcome, §5.6) — and folds the results. On cancellation it
// returns promptly with partial outcomes: folded sites keep their verdicts,
// unfinished sites read as unknown with empty experiment fields, and
// ctx.Err() tells the caller the sweep was cut short.
func EvaluateContext(ctx context.Context, cfg Config, list []*apps.App) []AppOutcome {
	jc := cfg.Cache
	if jc == nil {
		jc = dispatch.NewJobCache(dispatch.CacheConfig{})
	}
	backend := cfg.backend(len(list), jc)
	analysisWorkers := cfg.Workers
	if analysisWorkers <= 0 {
		analysisWorkers = len(list)
	}

	// Stages 1–3 run in-process, through the job cache: the planner needs
	// each application's site list to cut per-site jobs. Analysis ignores
	// the seed (it travels on the jobs), so the cache entry the planner
	// warms here is the one the default Local backend's jobs hit —
	// and a shared cfg.Cache serves a repeated sweep without re-analyzing.
	// Out-of-process workers still re-derive analysis from the job records
	// alone (or their own shared cache directory).
	plans := queue.Map(analysisWorkers, list, func(app *apps.App) *appPlan {
		p := &appPlan{app: app}
		start := time.Now()
		p.targets, p.err = jc.Targets(ctx, app, cfg.Engine)
		p.analysis = time.Since(start)
		if p.err != nil {
			p.err = fmt.Errorf("harness: %s: %w", app.Short, p.err)
		}
		return p
	})

	// Wave 1: one hunt job per (application, site).
	var w wave
	for _, p := range plans {
		if p.err != nil {
			continue
		}
		p.result = &core.AppResult{App: p.app, Analysis: p.analysis, Sites: make([]*core.SiteResult, len(p.targets))}
		for i, t := range p.targets {
			p.result.Sites[i] = &core.SiteResult{Target: t, Verdict: core.VerdictUnknown}
			w.add(p, i, dispatch.SiteJob(dispatch.KindHunt, p.app.Short, t.Info, cfg.Seed, cfg.Engine))
		}
	}
	for _, res := range runWave(ctx, backend, w.jobs) {
		ref := w.refs[res.JobID]
		if res.Err != "" {
			if ref.plan.err == nil {
				ref.plan.err = fmt.Errorf("harness: %s: %s", ref.plan.app.Short, res.Err)
			}
			continue
		}
		sr := ref.plan.result.Sites[ref.site]
		verdict, _ := res.CoreVerdict()
		sr.Verdict = verdict
		sr.Input = res.Input
		sr.ErrorType = res.ErrorType
		sr.Enforced = res.Enforced
		sr.Runs = res.Runs
		sr.Discovery = time.Duration(res.DiscoveryMS) * time.Millisecond
	}
	for _, p := range plans {
		if p.err == nil && p.result != nil {
			p.record = report.FromResult(p.result)
		}
	}

	// Wave 2: the §5.4 same-path experiment for every site, and the §5.5
	// target-only success rate for exposed sites. Experiment jobs carry the
	// same derived seed as the site's hunt, so rates are reproducible and
	// independent of experiment placement.
	if ctx.Err() == nil && (cfg.SamePath || cfg.SampleN > 0) {
		w = wave{}
		for _, p := range plans {
			if p.err != nil {
				continue
			}
			for i, t := range p.targets {
				if cfg.SamePath {
					w.add(p, i, dispatch.SiteJob(dispatch.KindSamePath, p.app.Short, t.Info, cfg.Seed, cfg.Engine))
				}
				if cfg.SampleN > 0 && p.result.Sites[i].Verdict == core.VerdictExposed {
					j := dispatch.SiteJob(dispatch.KindSuccessRate, p.app.Short, t.Info, cfg.Seed, cfg.Engine)
					j.SampleN = cfg.SampleN
					w.add(p, i, j)
				}
			}
		}
		for _, res := range runWave(ctx, backend, w.jobs) {
			ref := w.refs[res.JobID]
			srec := ref.plan.record.SiteFor(ref.plan.targets[ref.site].Site)
			switch {
			case res.Err != "":
				if ref.plan.err == nil {
					ref.plan.err = fmt.Errorf("harness: %s: %s", ref.plan.app.Short, res.Err)
				}
			case res.Kind == dispatch.KindSamePath:
				srec.SamePathSat = res.SamePathSat
			default:
				srec.TargetOnly = report.Rate{Hits: res.Hits, Total: res.Total, Failures: res.GenFailures}
			}
		}
	}

	// Wave 3: the §5.6 enforced-constraint success rate. The paper only runs
	// it when enforcement did work and the target-alone rate is low, so this
	// wave is planned from wave 2's folded results.
	if ctx.Err() == nil && cfg.SampleN > 0 {
		w = wave{}
		for _, p := range plans {
			if p.err != nil {
				continue
			}
			for i, t := range p.targets {
				sr := p.result.Sites[i]
				srec := p.record.SiteFor(t.Site)
				if sr.Verdict != core.VerdictExposed || sr.EnforcedCount() == 0 ||
					srec.TargetOnly.Hits*2 >= srec.TargetOnly.Total {
					continue
				}
				j := dispatch.SiteJob(dispatch.KindSuccessRate, p.app.Short, t.Info, cfg.Seed, cfg.Engine)
				j.SampleN, j.Enforced = cfg.SampleN, sr.Enforced
				w.add(p, i, j)
			}
		}
		for _, res := range runWave(ctx, backend, w.jobs) {
			ref := w.refs[res.JobID]
			if res.Err != "" {
				if ref.plan.err == nil {
					ref.plan.err = fmt.Errorf("harness: %s: %s", ref.plan.app.Short, res.Err)
				}
				continue
			}
			srec := ref.plan.record.SiteFor(ref.plan.targets[ref.site].Site)
			srec.TargetEnforced = report.Rate{Hits: res.Hits, Total: res.Total, Failures: res.GenFailures}
		}
	}

	// Arith wave: the extended hunt surface. Every discovered arith site is
	// either pre-folded from its safe triage verdict (no job — this is the
	// pruning the triage pays for) or hunted via the probe transformation.
	// Per-site failures stay on the ArithSite: an arith node the seed never
	// reaches is an expected outcome of sweeping the full static surface,
	// not an application failure.
	if ctx.Err() == nil && cfg.Arith {
		w = wave{}
		for _, p := range plans {
			if p.err != nil {
				continue
			}
			sites, err := arithSites(p.app, cfg.Engine.NoTriage)
			if err != nil {
				p.err = fmt.Errorf("harness: %s: %w", p.app.Short, err)
				continue
			}
			p.arith = make([]ArithSite, len(sites))
			for i, s := range sites {
				p.arith[i] = ArithSite{Site: s, Verdict: core.VerdictUnknown}
				if !cfg.Engine.NoTriage && s.Triage == discover.TriageSafe {
					p.arith[i].Verdict = core.VerdictUnsat
					p.arith[i].Pruned = true
					continue
				}
				w.add(p, i, dispatch.SiteJob(dispatch.KindHunt, p.app.Short, s, cfg.Seed, cfg.Engine))
			}
		}
		for _, res := range runWave(ctx, backend, w.jobs) {
			ref := w.refs[res.JobID]
			as := &ref.plan.arith[ref.site]
			if res.Err != "" {
				as.Err = res.Err
				continue
			}
			verdict, _ := res.CoreVerdict()
			as.Verdict = verdict
			as.ErrorType = res.ErrorType
		}
	}

	outcomes := make([]AppOutcome, len(plans))
	for i, p := range plans {
		if p.err != nil {
			outcomes[i] = AppOutcome{App: p.app, Err: p.err}
			continue
		}
		outcomes[i] = AppOutcome{App: p.app, Result: p.result, Record: p.record, Arith: p.arith}
	}
	return outcomes
}

// arithSites lists an application's arith sites (apps.App.Sites).
func arithSites(app *apps.App, noTriage bool) ([]discover.Site, error) {
	sites, err := app.Sites(noTriage)
	if err != nil {
		return nil, err
	}
	var out []discover.Site
	for _, s := range sites {
		if s.Kind == discover.KindArith {
			out = append(out, s)
		}
	}
	return out, nil
}

// runWave runs one job wave on the backend and returns the streamed results
// (any order; callers resolve by JobID). A backend setup failure is folded
// into per-job error results so the sweep degrades instead of panicking.
func runWave(ctx context.Context, backend dispatch.Backend, jobs []dispatch.Job) []dispatch.Result {
	if len(jobs) == 0 {
		return nil
	}
	results, err := dispatch.Collect(ctx, backend, jobs)
	if err != nil && ctx.Err() == nil {
		results = results[:0]
		for _, j := range jobs {
			results = append(results, dispatch.Result{
				JobID: j.ID, Kind: j.Kind, App: j.App, Site: j.Site, Err: err.Error(),
			})
		}
	}
	return results
}

// Records extracts the render records from a sweep, skipping failures.
func Records(outcomes []AppOutcome) []*report.AppRecord {
	var recs []*report.AppRecord
	for _, o := range outcomes {
		if o.Err == nil {
			recs = append(recs, o.Record)
		}
	}
	return recs
}
