// Package dispatch is the execution surface of the system — the paper's §4
// distributed work-queue role made an API, and the only place per-site work
// fans out. Every sweep (cmd/diode, the harness behind diode-tables)
// decomposes into serializable per-site Jobs: a hunt, a §5.4 same-path
// experiment or a §5.5/§5.6 success-rate experiment is one unit of work,
// identified by (application, site, derived seed) and therefore executable
// by any worker — a goroutine of the Local backend or a spawned diode-worker
// process of the Exec backend — with byte-identical results. Backends stream
// Results as jobs complete; context cancellation stops a sweep mid-flight
// with partial results.
//
// The Job/Result records have a stable JSON codec (the wire format of the
// diode-worker stdin/stdout protocol and the natural storage format for a
// future networked queue); determinism rests on per-site seeding — every job
// carries its full derived seed, so neither placement nor completion order
// influences verdicts.
package dispatch

import (
	"fmt"

	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/solver"
)

// Kind discriminates the units of work a worker knows how to execute.
type Kind string

// Job kinds.
const (
	// KindHunt runs the Figure 7 goal-directed branch enforcement loop for
	// one target site.
	KindHunt Kind = "hunt"
	// KindSamePath decides the §5.4 same-path satisfiability experiment for
	// one target site.
	KindSamePath Kind = "same-path"
	// KindSuccessRate runs one §5.5/§5.6 success-rate experiment: sample up
	// to SampleN models of the target constraint (conjoined with the branch
	// constraints named by Enforced, if any) and count triggering inputs.
	KindSuccessRate Kind = "success-rate"
)

// Options are the serializable pipeline settings a job carries: the knobs
// that influence verdicts, declared once as core.Settings. The run seed is
// not among them (it travels on the Job, fully derived), nor is the live
// progress hook (a callback cannot cross a process boundary; the Sink
// carries progress instead). The zero value means core defaults.
type Options = core.Settings

// Job is one serializable unit of work. Jobs are self-contained: the worker
// re-derives everything else (the analyzed Target, the enforced constraint)
// deterministically from these fields, so a job can run in any process on any
// machine and produce the same Result.
type Job struct {
	// ID identifies the job within one Backend.Run call; Results carry it
	// back so streams can be folded in any completion order.
	ID int `json:"id"`
	// Kind selects the unit of work.
	Kind Kind `json:"kind"`
	// App is the benchmark application's short registry name.
	App string `json:"app"`
	// Site is the target allocation-site name.
	Site string `json:"site"`
	// SiteKind is the discovered site's kind. Alloc-kind sites run the
	// pipeline directly; arith-kind sites run it against the probe-
	// instrumented program (discover.Probe), which derives the overflow
	// constraint at the arith node. Empty is accepted as alloc so
	// pre-discovery job records stay valid.
	SiteKind string `json:"siteKind,omitempty"`
	// SitePath is the site's stable node path from the discovery pass.
	SitePath string `json:"sitePath,omitempty"`
	// Seed is the fully derived per-site hunt seed (the planner applies
	// core.SiteSeed; workers use it verbatim).
	Seed int64 `json:"seed"`
	// SampleN is the sample budget of a success-rate job.
	SampleN int `json:"sampleN,omitempty"`
	// Enforced lists enforced branch labels, in enforcement order, for the
	// §5.6 variant of a success-rate job: the worker rebuilds φ′∧β with
	// core.EnforcedConstraintFor. Empty means the §5.5 target-only variant.
	Enforced []string `json:"enforced,omitempty"`
	// Opts carries the engine options subset.
	Opts Options `json:"opts"`
}

// SiteJob builds the job of the given kind for one discovered site of an
// application. The job's seed derives from the run seed in two steps,
// core.SiteSeed(core.SiteSeed(seed, app), site): the application's base
// seed, then the site's. It carries the site's structured identity (kind and
// node path), so every planner that cuts a job for the same site, run seed
// and options produces the same record — and the same JobKey. ID, SampleN
// and Enforced are left for the caller.
func SiteJob(kind Kind, app string, site discover.Site, seed int64, opts Options) Job {
	return Job{
		Kind:     kind,
		App:      app,
		Site:     site.Name,
		SiteKind: string(site.Kind),
		SitePath: site.Path,
		Seed:     core.SiteSeed(core.SiteSeed(seed, app), site.Name),
		Opts:     opts,
	}
}

// HuntJobs plans one hunt job per analyzed target of the named application
// (SiteJob at run seed seed): job i hunts targets[i] and has ID i. At the
// same run seed and options each record, and so each JobKey, equals the job
// the harness plans for that site, so cmd/diode and diode-tables share
// job-cache entries.
func HuntJobs(app string, targets []*core.Target, seed int64, opts Options) []Job {
	jobs := make([]Job, len(targets))
	for i, t := range targets {
		jobs[i] = SiteJob(KindHunt, app, t.Info, seed, opts)
		jobs[i].ID = i
	}
	return jobs
}

// Validate checks the fields a worker depends on. Backends surface a
// validation failure as a Result with Err set rather than executing the job.
func (j Job) Validate() error {
	switch j.Kind {
	case KindHunt, KindSamePath:
		if j.SampleN != 0 {
			return fmt.Errorf("dispatch: %s job has sampleN %d (only success-rate jobs sample)", j.Kind, j.SampleN)
		}
		if len(j.Enforced) != 0 {
			return fmt.Errorf("dispatch: %s job carries enforced labels (only success-rate jobs do)", j.Kind)
		}
	case KindSuccessRate:
		if j.SampleN <= 0 {
			return fmt.Errorf("dispatch: success-rate job needs a positive sampleN, got %d", j.SampleN)
		}
	default:
		return fmt.Errorf("dispatch: unknown job kind %q", j.Kind)
	}
	if j.App == "" {
		return fmt.Errorf("dispatch: job has no application")
	}
	if j.Site == "" {
		return fmt.Errorf("dispatch: job has no site")
	}
	if j.SiteKind != "" && j.SiteKind != string(discover.KindAlloc) && j.SiteKind != string(discover.KindArith) {
		return fmt.Errorf("dispatch: site %s has kind %q; only %s- and %s-kind sites are executable",
			j.Site, j.SiteKind, discover.KindAlloc, discover.KindArith)
	}
	return nil
}

// Result is the serializable outcome of one job. Exactly one of the
// kind-specific field groups is populated (hunt / same-path / success-rate);
// Err reports a job that could not run at all (unknown application, analysis
// failure, worker loss) — never a negative verdict, which is ordinary data.
type Result struct {
	JobID int    `json:"jobID"`
	Kind  Kind   `json:"kind"`
	App   string `json:"app"`
	Site  string `json:"site"`
	Err   string `json:"err,omitempty"`

	// Cached reports that the result was served from the job cache's disk
	// store rather than executed for this job. Everything else about a
	// cached result is byte-identical to executing, including DiscoveryMS —
	// the stored wall-clock replays.
	Cached bool `json:"cached,omitempty"`

	// Hunt fields.
	Verdict         string   `json:"verdict,omitempty"`
	ErrorType       string   `json:"errorType,omitempty"`
	Enforced        []string `json:"enforced,omitempty"`
	Runs            int      `json:"runs,omitempty"`
	DynamicBranches int      `json:"dynamicBranches,omitempty"`
	Input           []byte   `json:"input,omitempty"`
	DiscoveryMS     int64    `json:"discoveryMS,omitempty"`

	// SamePathSat is the §5.4 verdict ("sat", "unsat", "unknown").
	SamePathSat string `json:"samePathSat,omitempty"`

	// Success-rate fields: Hits triggering inputs out of Total generated;
	// GenFailures counts sampled models the input-reconstruction layer lost.
	Hits        int `json:"hits,omitempty"`
	Total       int `json:"total,omitempty"`
	GenFailures int `json:"genFailures,omitempty"`

	// Stats are the job's solver work counters (its Hunter's snapshot).
	Stats solver.Stats `json:"stats"`
}

// CoreVerdict maps the wire verdict string back to the engine enumeration.
func (r *Result) CoreVerdict() (core.Verdict, bool) {
	for _, v := range []core.Verdict{
		core.VerdictExposed, core.VerdictUnsat, core.VerdictPrevented, core.VerdictUnknown,
	} {
		if v.String() == r.Verdict {
			return v, true
		}
	}
	return core.VerdictUnknown, false
}
