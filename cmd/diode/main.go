// Command diode runs the DIODE pipeline against one benchmark application
// and prints a bug report per target site: classification, the enforced
// sanity checks, the triggering input's field values, and the observed
// error.
//
// The hunts run as dispatch jobs: -backend local fans them out on an
// in-process pool, -backend exec shards them across spawned diode-worker
// processes (the §4 work-queue role). -progress streams live per-site
// started/iteration/verdict lines to stderr as the jobs execute; -json
// replaces the text report with one report.SiteRecord JSON line per site on
// stdout. The command exits non-zero if analysis fails or any job errors.
//
// Usage:
//
//	diode -app dillo [-seed 1] [-parallel N] [-backend local|exec] [-worker BIN]
//	      [-cache-dir DIR] [-no-cache] [-expr] [-v] [-json] [-progress]
//	      [-sites] [-triage] [-no-triage] [-discover]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -sites prints the application's statically discovered overflow sites (the
// internal/discover listing: name, kind, function, taint sources, rendered
// expression) and exits without hunting. -triage prints the same sites with
// their static value-range triage verdict and bounds and exits. -no-triage
// disables the triage during hunts (ablation). -discover runs the normal
// hunt but sweeps the sites in static discovery order and appends a
// discovery summary line to the report.
//
// -cache-dir points at a shared on-disk result cache: a repeated run against
// the same directory serves every hunt from the cache (byte-identical
// output, near-zero work) and reports hit/miss counters on stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"diode"
	"diode/internal/prof"
	"diode/internal/report"
)

// main delegates to run so every exit path unwinds normally — os.Exit skips
// defers, and the profile flush in run relies on them.
func main() { os.Exit(run()) }

func run() (code int) {
	appName := flag.String("app", "dillo",
		"application: "+strings.Join(diode.ApplicationNames(diode.Applications()), ", "))
	seed := flag.Int64("seed", 1, "random seed for the hunt")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent site hunts (1 = sequential; verdicts are identical)")
	backendName := flag.String("backend", "local", "job backend: local (in-process pool) or exec (spawned diode-worker processes)")
	workerBin := flag.String("worker", "", "diode-worker binary for -backend exec (default: sibling of this binary, then $PATH)")
	showExpr := flag.Bool("expr", false, "print the symbolic target expression per site")
	verbose := flag.Bool("v", false, "print relevant input bytes, path statistics and solver counters")
	jsonOut := flag.Bool("json", false, "emit one report.SiteRecord JSON line per site instead of the text report")
	progress := flag.Bool("progress", false, "stream live job progress (started/iteration/verdict) to stderr")
	cacheDir := flag.String("cache-dir", "", "on-disk result cache directory shared across runs (empty = memory only)")
	noCache := flag.Bool("no-cache", false, "disable result caching (analysis is still memoized in-process)")
	blockingSampling := flag.Bool("blocking-sampling", false, "ablation: enumerate sample models via blocking clauses instead of randomized restarts")
	sitesMode := flag.Bool("sites", false, "list the statically discovered sites (name, kind, function, taint, expression) and exit without hunting")
	triageMode := flag.Bool("triage", false, "list the discovered sites with their static value-range triage (verdict, bounds) and exit without hunting")
	noTriage := flag.Bool("no-triage", false, "ablation: disable the static triage (no hunt short-circuits; arith sites all hunt)")
	discoverMode := flag.Bool("discover", false, "sweep in static discovery order and append the discovered-site summary")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	profiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		return 2
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	app, err := diode.Application(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *sitesMode {
		out, err := sitesListing(app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discovery failed:", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}
	if *triageMode {
		out, err := triageListing(app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "triage failed:", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	settings := diode.JobOptions{OneShotSampling: *blockingSampling, NoTriage: *noTriage}
	// The job cache memoizes the analysis and, with -cache-dir, serves whole
	// job results from disk so repeated runs skip the hunts entirely.
	jc := diode.NewJobCache(diode.JobCacheConfig{Dir: *cacheDir, NoResults: *noCache})
	targets, err := jc.Targets(ctx, app, settings)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analysis failed:", err)
		return 1
	}
	// Under -discover the sweep runs in static discovery order rather than
	// seed-execution order; verdicts are per-site seeded either way, so the
	// ordering only affects presentation.
	var discovered []diode.DiscoveredSite
	if *discoverMode {
		discovered, err = app.Discovered()
		if err != nil {
			fmt.Fprintln(os.Stderr, "discovery failed:", err)
			return 1
		}
		discoveryOrder(discovered, targets)
	}
	// One hunt job per analyzed site, seeded from -seed by the same
	// derivation diode-tables uses, so the two share job-cache entries; the
	// targets are kept for the verbose per-site introspection below.
	jobs := diode.HuntJobsFor(app, diode.Options{Seed: *seed, Settings: settings}, targets)

	var sink diode.JobSink
	if *progress {
		sink = func(ev diode.JobEvent) {
			switch ev.Type {
			case diode.JobStarted:
				fmt.Fprintf(os.Stderr, "[diode] %s: hunt started\n", ev.Job.Site)
			case diode.JobIteration:
				fmt.Fprintf(os.Stderr, "[diode] %s: enforcement iteration %d\n", ev.Job.Site, ev.Iteration)
			case diode.JobFinished:
				fmt.Fprintf(os.Stderr, "[diode] %s: %s\n", ev.Job.Site, ev.Result.Verdict)
			case diode.JobCacheHit:
				fmt.Fprintf(os.Stderr, "[diode] %s: %s (cached)\n", ev.Job.Site, ev.Result.Verdict)
			}
		}
	}
	var backend diode.Backend
	var execBackend *diode.ExecBackend
	switch *backendName {
	case "local":
		backend = &diode.LocalBackend{Workers: *parallel, Sink: sink, Cache: jc}
	case "exec":
		execBackend = &diode.ExecBackend{Binary: *workerBin, Workers: *parallel, Sink: sink,
			CacheDir: *cacheDir, NoCache: *noCache}
		backend = execBackend
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (local, exec)\n", *backendName)
		return 2
	}

	results, err := diode.RunJobs(ctx, backend, jobs)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "dispatch failed:", err)
		return 1
	}
	if ctx.Err() != nil {
		// Interrupted: report the sites that finished, then exit non-zero.
		fmt.Fprintf(os.Stderr, "interrupted: %d of %d sites finished\n", len(results), len(jobs))
	}
	// Results stream in completion order; report in analysis (job) order.
	sort.Slice(results, func(i, j int) bool { return results[i].JobID < results[j].JobID })

	failed := false
	for _, r := range results {
		if r.Err != "" {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %s\n", r.Site, r.Err)
		}
	}

	if *verbose || *cacheDir != "" {
		cs := jc.Stats()
		if execBackend != nil {
			// Workers run their own caches; fold their counters in.
			cs = cs.Plus(execBackend.CacheStats())
		}
		fmt.Fprintf(os.Stderr, "[diode] cache: hits=%d misses=%d stores=%d corrupt=%d analysisRuns=%d analysisHits=%d\n",
			cs.Hits, cs.Misses, cs.Stores, cs.CorruptEntries, cs.AnalysisRuns, cs.AnalysisHits)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range results {
			if r.Err != "" {
				continue
			}
			verdict, _ := r.CoreVerdict()
			rec := report.SiteRecord{
				App:             r.App,
				Site:            r.Site,
				Verdict:         r.Verdict,
				Class:           verdict.Class().String(),
				ErrorType:       r.ErrorType,
				Enforced:        len(r.Enforced),
				RelevantDynamic: r.DynamicBranches,
				DiscoveryMS:     r.DiscoveryMS,
			}
			if err := enc.Encode(&rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if failed || ctx.Err() != nil {
			return 1
		}
		return 0
	}

	byID := make(map[int]*diode.Target, len(targets))
	for i := range targets {
		byID[jobs[i].ID] = targets[i]
	}
	fmt.Printf("%s — %d target sites\n\n", app.Name, len(results))
	exposed := 0
	var stats diode.SolverStats
	for _, r := range results {
		stats.Add(r.Stats)
		if r.Err != "" {
			fmt.Printf("site %s: error\n\n", r.Site)
			continue
		}
		t := byID[r.JobID]
		fmt.Printf("site %s: %s", r.Site, r.Verdict)
		if r.Verdict == diode.VerdictExposed.String() {
			exposed++
			fmt.Printf(" (%s, %d branches enforced, %dms)", r.ErrorType, len(r.Enforced), r.DiscoveryMS)
		}
		fmt.Println()
		if *verbose {
			fmt.Printf("  relevant bytes: %v\n", t.RelevantBytes)
			fmt.Printf("  relevant branches on seed path: %d static / %d dynamic\n",
				len(t.SeedPath), t.DynamicBranches)
		}
		if *showExpr {
			fmt.Printf("  target expression: %s\n", t.Expr)
		}
		if r.Verdict == diode.VerdictExposed.String() {
			if len(r.Enforced) > 0 {
				fmt.Printf("  enforced checks: %s\n", strings.Join(r.Enforced, ", "))
			}
			fmt.Printf("  triggering field values:\n")
			for _, spec := range app.Format.Fields.Specs() {
				seedVal := spec.Read(app.Format.Seed)
				newVal := spec.Read(r.Input)
				if seedVal != newVal {
					fmt.Printf("    %-20s %d -> %d\n", spec.Name, seedVal, newVal)
				}
			}
		}
		fmt.Println()
	}
	fmt.Printf("%d overflows exposed out of %d sites\n", exposed, len(results))
	if *discoverMode {
		fmt.Println(discoverySummary(discovered, len(targets)))
	}
	if *verbose {
		fmt.Printf("solver: %d concrete hits, %d SAT solves, %d conflicts, %d unsat, %d unknown (aggregated over %d-way %s dispatch)\n",
			stats.ConcreteHits, stats.SATSolves, stats.Conflicts, stats.UnsatResults, stats.UnknownOut, *parallel, *backendName)
		fmt.Printf("incremental: %d model-cache hits, %d assumption solves, %d learned clauses reused\n",
			stats.ModelCacheHits, stats.AssumptionSolves, stats.ClausesReused)
	}
	if failed || ctx.Err() != nil {
		return 1
	}
	return 0
}
