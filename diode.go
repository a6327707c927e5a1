// Package diode is a from-scratch Go implementation of DIODE, the targeted
// integer-overflow discovery system of "Targeted Automatic Integer Overflow
// Discovery Using Goal-Directed Conditional Branch Enforcement"
// (Sidiroglou-Douskos et al., ASPLOS 2015).
//
// DIODE starts from a target memory allocation site whose size the input
// influences, extracts a symbolic target expression for the allocated size,
// derives the target constraint (the inputs for which that computation
// overflows), and then runs goal-directed conditional branch enforcement:
// solve, run, find the first sanity check the generated input flips, enforce
// it, and re-solve — until an input triggers the overflow or the constraint
// becomes unsatisfiable.
//
// This package is the public facade. The heavy machinery lives in internal
// packages: the bitvector engine and CDCL/bit-blasting solver (the Z3
// substitute), the concrete+symbolic interpreter for the paper's core
// language (the Valgrind substitute), the field-dictionary and
// input-reconstruction layers (the Hachoir/Peach substitutes), and the five
// re-authored benchmark applications. See DESIGN.md for the package
// inventory and the layer diagram.
//
// The pipeline itself is two layers: an Analyzer (stages 1–3, once per
// application) and per-site Hunters (the Figure 7 enforcement loop, each
// with a private solver seeded per site via Options.ForSite). A site's
// verdict is what that one Hunter finds, so parallel and sequential sweeps
// produce identical verdicts.
//
// The execution surface is job-based (the paper's §4 distributed work-queue
// role) and is the only fan-out: a sweep decomposes into serializable Jobs —
// per-site hunts, same-path experiments, success-rate experiments — executed
// by a Backend.
// LocalBackend runs jobs on an in-process goroutine pool; ExecBackend shards
// them across spawned diode-worker processes. Every job carries its fully
// derived seed, so verdicts are byte-identical on any backend at any worker
// count, results stream as jobs complete, and a cancelled context stops a
// sweep mid-flight with partial results.
//
// Quick start:
//
//	app, _ := diode.Application("dillo")
//	jobs, _ := diode.HuntJobs(app, diode.Options{Seed: 1})
//	results, _ := diode.RunJobs(context.Background(),
//	    &diode.LocalBackend{Workers: runtime.GOMAXPROCS(0)}, jobs)
//	for _, r := range results {
//	    fmt.Println(r.Site, r.Verdict)
//	}
package diode

import (
	"context"

	"diode/internal/absint"
	"diode/internal/apps"
	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
	"diode/internal/report"
	"diode/internal/solver"
)

// App is a benchmark application: a guest program, its input format with a
// seed input, and the paper's per-site expectations.
type App = apps.App

// PaperSite is one row of the paper's evaluation tables for an application.
type PaperSite = apps.PaperSite

// Class is the Table 1 site classification.
type Class = apps.Class

// Site classifications (Table 1 columns).
const (
	ClassExposed   = apps.ClassExposed
	ClassUnsat     = apps.ClassUnsat
	ClassPrevented = apps.ClassPrevented
)

// DiscoveredSite is a structured overflow-site record from the static
// discovery pass: kind (alloc | arith), enclosing function, stable node
// path, rendered expression and static taint sources. App.Discovered
// returns them; alloc-kind sites are the hunt targets.
type DiscoveredSite = discover.Site

// Discovered site kinds.
const (
	SiteKindAlloc = discover.KindAlloc
	SiteKindArith = discover.KindArith
)

// DiscoverVersion is the discovery-pass revision; it participates in job
// cache keys so stale site vocabularies miss cleanly.
const DiscoverVersion = discover.Version

// FormatDiscovered renders discovered sites as the tab-aligned listing
// `diode -sites` prints (pure rows, safe to diff against goldens).
func FormatDiscovered(sites []DiscoveredSite) string { return discover.Format(sites) }

// Triage is the static value-range triage verdict attached to discovered
// sites by the abstract-interpretation pass (App.Triaged).
type Triage = discover.Triage

// Triage verdicts.
const (
	// TriageSafe: the site's value provably never wraps (or the site never
	// executes); its overflow constraint is unsatisfiable.
	TriageSafe = discover.TriageSafe
	// TriageMustOverflow: every execution reaching the site wraps.
	TriageMustOverflow = discover.TriageMustOverflow
	// TriageUnknown: the analysis cannot decide; the site is hunted
	// dynamically as usual.
	TriageUnknown = discover.TriageUnknown
)

// AbsintVersion is the static-triage pass revision; it participates in job
// cache keys so results computed under an older triage miss cleanly.
const AbsintVersion = absint.Version

// Triaged returns the application's discovered sites annotated with the
// static value-range triage verdict and bounds.
func Triaged(app *App) ([]DiscoveredSite, error) { return app.Triaged() }

// FormatTriage renders triaged sites as the tab-aligned listing
// `diode -triage` prints (pure rows, safe to diff against goldens).
func FormatTriage(sites []DiscoveredSite) string { return discover.FormatTriage(sites) }

// Options configure the pipeline: the run Seed, the serializable Settings
// (JobOptions) every job carries, and an optional live Progress hook. The
// zero value uses sensible defaults; set Seed for reproducible hunts.
type Options = core.Options

// Analyzer runs stages 1–3 once per application, producing immutable
// Targets.
type Analyzer = core.Analyzer

// Hunter runs the Figure 7 enforcement loop for one site with a private
// solver and input generator.
type Hunter = core.Hunter

// SolverStats is a snapshot of solver work counters: one Hunter's, as a
// JobResult carries them, or a sum of those.
type SolverStats = solver.Stats

// Target is an analyzed target site: relevant input bytes, symbolic target
// expression, target constraint, and the seed's branch condition sequence.
type Target = core.Target

// Verdict classifies a hunt's outcome.
type Verdict = core.Verdict

// Hunt verdicts.
const (
	VerdictExposed   = core.VerdictExposed
	VerdictUnsat     = core.VerdictUnsat
	VerdictPrevented = core.VerdictPrevented
	VerdictUnknown   = core.VerdictUnknown
)

// SiteResult is the outcome of hunting one site.
type SiteResult = core.SiteResult

// AppResult is the outcome of hunting every site of an application.
type AppResult = core.AppResult

// AppRecord and SiteRecord are persistable result records used by the table
// renderers.
type (
	AppRecord  = report.AppRecord
	SiteRecord = report.SiteRecord
)

// Applications returns every registered benchmark application: the paper's
// five (Dillo 2.1, VLC 0.8.6h, SwfPlay 0.5.5, CWebP 0.3.1, ImageMagick
// 6.5.2) followed by the extended workload suite (GIFView 0.4, TIFThumb
// 0.2).
func Applications() []*App { return apps.All() }

// PaperApplications returns the paper's five benchmark applications in the
// paper's table order.
func PaperApplications() []*App { return apps.Paper() }

// ExtendedApplications returns the extended workload suite: applications
// with no paper counterpart, reported with measured-only columns.
func ExtendedApplications() []*App { return apps.Extended() }

// Application returns a benchmark application by short name ("dillo", "vlc",
// "swfplay", "cwebp", "imagemagick", "gifview", "tifthumb").
func Application(short string) (*App, error) { return apps.ByName(short) }

// ApplicationNames returns the short names of the given applications, for
// usage strings and error messages.
func ApplicationNames(list []*App) []string { return apps.Shorts(list) }

// NewAnalyzer returns a stage 1–3 analyzer for the application.
func NewAnalyzer(app *App, opts Options) *Analyzer { return core.NewAnalyzer(app, opts) }

// NewHunter returns a single-site hunter; opts.Seed seeds its private
// solver directly (use Options.ForSite for the per-site derivation every
// sweep uses).
func NewHunter(app *App, opts Options) *Hunter { return core.NewHunter(app, opts) }

// SiteSeed derives the deterministic per-site hunt seed from the run seed
// and the site name.
func SiteSeed(seed int64, site string) int64 { return core.SiteSeed(seed, site) }

// Record converts an engine result into a persistable record for the table
// renderers.
func Record(res *AppResult) *AppRecord { return report.FromResult(res) }

// --- dispatch layer: the job-based execution surface ---

// Job is one serializable unit of work: a per-site hunt, same-path
// experiment or success-rate experiment, identified by (application, site,
// derived seed) and executable by any worker with identical results.
type Job = dispatch.Job

// JobKind discriminates the units of work.
type JobKind = dispatch.Kind

// Job kinds.
const (
	JobHunt        = dispatch.KindHunt
	JobSamePath    = dispatch.KindSamePath
	JobSuccessRate = dispatch.KindSuccessRate
)

// Progress event types.
const (
	JobStarted   = dispatch.EventStarted
	JobIteration = dispatch.EventIteration
	JobFinished  = dispatch.EventFinished
	// JobCacheHit fires instead of the started/finished pair when a job's
	// result is served from the job cache without executing.
	JobCacheHit = dispatch.EventCacheHit
)

// JobResult is the serializable outcome of one Job.
type JobResult = dispatch.Result

// Backend executes batches of jobs, streaming results as they complete.
type Backend = dispatch.Backend

// LocalBackend executes jobs on an in-process goroutine pool.
type LocalBackend = dispatch.Local

// ExecBackend shards jobs across spawned diode-worker processes — the
// multi-process deployment of the §4 work-queue role.
type ExecBackend = dispatch.Exec

// JobEvent is a progress observation (job started / enforcement iteration /
// finished) emitted by backends to a JobSink for live output.
type JobEvent = dispatch.Event

// JobSink receives progress events; it must be safe for concurrent calls.
type JobSink = dispatch.Sink

// JobCache is the content-addressed cache of the execution surface: it
// memoizes analysis Targets per (program fingerprint, options subset) in
// memory and, given an on-disk store shared across processes, serves whole
// job Results from it, so repeated and incremental sweeps skip the hunts.
// Share one JobCache across backends and runs so analyses are not repeated;
// cached results are byte-identical to executed ones.
type JobCache = dispatch.JobCache

// JobCacheConfig configures a JobCache (on-disk store directory, or
// disabling result caching).
type JobCacheConfig = dispatch.CacheConfig

// CacheStats is a snapshot of cache activity: result hits/misses, disk
// stores, corrupt-entry rejections, and analysis runs vs memoized hits.
type CacheStats = cache.Stats

// NewJobCache returns a job cache for the given configuration; the zero
// configuration memoizes analyses and caches no results. Construction cannot
// fail — an unusable cache directory degrades to a store that misses.
func NewJobCache(cfg JobCacheConfig) *JobCache { return dispatch.NewJobCache(cfg) }

// JobOptions are the serializable pipeline settings a Job carries — the
// Settings embedded in Options.
type JobOptions = dispatch.Options

// SiteJob builds the job of the given kind for one discovered site (a
// Target's Info) of the named application, seeded from the run seed as
// SiteSeed(SiteSeed(seed, app), site). Every planner builds its jobs this
// way, so the same site, run seed and options always yield the same job
// record and job-cache key.
func SiteJob(kind JobKind, app string, site DiscoveredSite, seed int64, opts JobOptions) Job {
	return dispatch.SiteJob(kind, app, site, seed, opts)
}

// RunJobs runs the jobs on the backend and collects the streamed results
// (completion order; resolve by JobID). On cancellation it returns the
// partial results together with ctx.Err().
func RunJobs(ctx context.Context, b Backend, jobs []Job) ([]JobResult, error) {
	return dispatch.Collect(ctx, b, jobs)
}

// HuntJobsFor plans one hunt job per analyzed target, with per-site seeds
// derived from the run seed opts.Seed (see SiteJob) — running the jobs on
// any Backend reproduces a sequential hunt of every site. Job i corresponds
// to targets[i] and carries opts.Settings; at the same run seed its record
// and cache key equal the job diode-tables plans for that site.
func HuntJobsFor(app *App, opts Options, targets []*Target) []Job {
	jobs := make([]Job, len(targets))
	for i, t := range targets {
		jobs[i] = SiteJob(JobHunt, app.Short, t.Info, opts.Seed, opts.Settings)
		jobs[i].ID = i
	}
	return jobs
}

// Table1 renders the paper's Table 1 (target site classification), measured
// values next to the paper's.
func Table1(appList []*App, recs []*AppRecord) string { return report.Table1(appList, recs) }

// Table2 renders the paper's Table 2 (evaluation summary for exposed sites).
func Table2(appList []*App, recs []*AppRecord) string { return report.Table2(appList, recs) }

// TableExtended renders the extended-suite table: every site of the given
// applications with measured-only columns (no paper values exist for them).
func TableExtended(appList []*App, recs []*AppRecord) string {
	return report.TableExtended(appList, recs)
}

// TableDiscovered renders the static site-discovery summary: discovered
// sites by kind per application, next to the curated paper-table sizes.
func TableDiscovered(appList []*App) (string, error) {
	return report.TableDiscovered(appList)
}

// TableTriage renders the static value-range triage summary: discovered
// sites by triage verdict per application, plus the arith hunts the triage
// prunes from an extended sweep.
func TableTriage(appList []*App) (string, error) {
	return report.TableTriage(appList)
}
