package dispatch

import (
	"context"
	"fmt"

	"diode/internal/apps"
	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/discover"
)

// Execute runs one job to completion and is the single executor every
// backend funnels through: the Local backend calls it on pool goroutines,
// WorkerMain calls it inside spawned diode-worker processes. Before
// constructing a Hunter it consults the JobCache's disk store, when it has
// one — a hit returns the stored Result (marked Cached, with EventCacheHit
// emitted) without executing anything: no analysis, no hunt. A job that
// executes stores its successful Result there. The returned error is
// non-nil only when ctx was cancelled before the job finished (the job has
// no final Result then); every other failure — invalid job, unknown
// application, analysis error, missing site — comes back as a Result with
// Err set, so a backend can keep streaming. Error results are never cached.
//
// The sink receives EventStarted before work begins, EventIteration per
// enforcement iteration of a hunt, and EventFinished with the final Result —
// or a single EventCacheHit instead when the result was served from the
// store (event payloads are valid only for the duration of the callback).
func Execute(ctx context.Context, job Job, jc *JobCache, sink Sink) (Result, error) {
	res := Result{JobID: job.ID, Kind: job.Kind, App: job.App, Site: job.Site}
	if err := job.Validate(); err != nil {
		res.Err = err.Error()
		return res, nil
	}
	if jc == nil {
		jc = NewJobCache(CacheConfig{})
	}
	app, err := jc.App(job.App)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	if jc.store == nil {
		jc.counters.Add(cache.Stats{Misses: 1})
		return run(ctx, job, app, jc, sink)
	}

	key := JobKey(app.Fingerprint(), job)
	if r, ok := jc.lookupDisk(key); ok {
		jc.counters.Add(cache.Stats{Hits: 1})
		// Restamp the batch-local identity: a stored result carries the
		// producing job's ID.
		r.JobID, r.App, r.Site = job.ID, job.App, job.Site
		r.Cached = true
		sink.emit(Event{Type: EventCacheHit, Job: job, Result: &r})
		return r, nil
	}
	jc.counters.Add(cache.Stats{Misses: 1})
	r, err := run(ctx, job, app, jc, sink)
	if err == nil && r.Err == "" {
		jc.storeDisk(key, r)
	}
	return r, err
}

// run executes the job for real: resolve the analyzed Target through the
// cache, then drive a fresh Hunter. One fresh hunter per job: its private
// solver is seeded by the job's derived seed alone, which is the whole
// determinism story — no state crosses jobs, so placement and order cannot
// matter (and results stay safe to cache by content).
//
// An arith-kind job runs the whole pipeline against the probe-instrumented
// derived application (apps.App.Probe): the probe allocation carries the
// arith site's name, so analysis extracts the overflow constraint at the
// arith node and triggered() observes its wrap. The probe program has its
// own fingerprint, so its analysis and results occupy their own cache
// entries. Its site list is the original program's, so the resolved Target
// carries the arith site's record for the Hunter's triage short-circuits
// and the reports.
func run(ctx context.Context, job Job, app *apps.App, jc *JobCache, sink Sink) (Result, error) {
	res := Result{JobID: job.ID, Kind: job.Kind, App: job.App, Site: job.Site}
	if job.SiteKind == string(discover.KindArith) {
		probe, err := app.Probe(job.Site)
		if err != nil {
			res.Err = err.Error()
			return res, nil
		}
		app = probe
	}
	targets, err := jc.Targets(ctx, app, job.Opts)
	if err != nil {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Err = err.Error()
		return res, nil
	}
	var t *core.Target
	for _, cand := range targets {
		if cand.Site == job.Site {
			t = cand
			break
		}
	}
	if t == nil {
		res.Err = fmt.Sprintf("dispatch: application %q has no target site %q", job.App, job.Site)
		return res, nil
	}

	sink.emit(Event{Type: EventStarted, Job: job})
	opts := job.Opts.Core(job.Seed)
	if sink != nil && job.Kind == KindHunt {
		opts.Progress = func(i int) {
			sink(Event{Type: EventIteration, Job: job, Iteration: i})
		}
	}
	h := core.NewHunter(app, opts)
	switch job.Kind {
	case KindHunt:
		sr := h.HuntContext(ctx, t)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Verdict = sr.Verdict.String()
		res.ErrorType = sr.ErrorType
		res.Enforced = sr.Enforced
		res.Runs = sr.Runs
		res.DynamicBranches = t.DynamicBranches
		res.Input = sr.Input
		res.DiscoveryMS = sr.Discovery.Milliseconds()
	case KindSamePath:
		res.SamePathSat = h.SamePathSatisfiable(t).String()
	case KindSuccessRate:
		constraint := core.EnforcedConstraintFor(t, job.Enforced)
		hits, total := h.SuccessRateContext(ctx, t, constraint, job.SampleN)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Hits, res.Total = hits, total
		res.GenFailures = h.SolverStats().GenFailures
	}
	res.Stats = h.SolverStats()
	sink.emit(Event{Type: EventFinished, Job: job, Result: &res})
	return res, nil
}
