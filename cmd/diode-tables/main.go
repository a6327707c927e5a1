// Command diode-tables regenerates the evaluation tables: Table 1 (target
// site classification), Table 2 (evaluation summary, including the §5.5/§5.6
// success-rate columns) and the §5.4 same-path experiment, with paper values
// printed beside the measured ones — plus the extended-suite table, whose
// applications have no paper counterpart and render measured-only columns.
//
// The sweep runs as dispatch jobs over a backend: -backend local fans out on
// an in-process pool, -backend exec shards across spawned diode-worker
// processes. Tables are byte-identical for either backend at any worker
// count. -json streams the per-application report.AppRecord values as JSON
// lines instead of rendering tables; -db additionally writes the JSON results
// database to a file. Any application error aborts with a non-zero exit
// before any table is rendered.
//
// Usage:
//
//	diode-tables [-table all|1|2|samepath|extended] [-n 200] [-seed 1]
//	             [-parallel N] [-backend local|exec] [-worker BIN]
//	             [-cache-dir DIR] [-json] [-progress] [-db out.json]
//	             [-discover] [-triage] [-no-triage] [-arith]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// -discover appends the statically discovered-site table (per-application
// alloc/arith counts from the internal/discover pass) after the selected
// tables. -triage appends the static value-range triage table (sites by
// triage verdict, plus the arith hunts the triage prunes). -no-triage
// disables the triage during hunts (ablation; the curated tables are
// byte-identical either way). -arith additionally hunts every discovered
// arith site through the probe transform and appends a per-application
// summary; dillo's wave allocates gigabytes of guest memory.
//
// -cache-dir points at a shared on-disk result cache: a repeated sweep
// against the same directory serves every job from the cache (byte-identical
// tables, no hunts; each application is still analyzed in-process to plan
// the jobs) and reports hit/miss counters on stderr. Without it no result is
// cached.
//
// -parallel is the number of concurrent jobs, as on cmd/diode: the size of
// the in-process pool, or the number of worker processes under -backend
// exec.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/prof"
	"diode/internal/report"
)

// main delegates to run so every exit path unwinds normally — os.Exit skips
// defers, and the profile flush in run relies on them.
func main() { os.Exit(run()) }

func run() (code int) {
	table := flag.String("table", "all", "which table to produce: all, 1, 2, samepath, extended")
	n := flag.Int("n", 200, "inputs per success-rate experiment (0 disables; paper uses 200)")
	seed := flag.Int64("seed", 1, "base random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent jobs: in-process pool size, or worker processes for -backend exec (rows are identical at any setting)")
	backendName := flag.String("backend", "local", "job backend: local (in-process pool) or exec (spawned diode-worker processes)")
	workerBin := flag.String("worker", "", "diode-worker binary for -backend exec (default: sibling of this binary, then $PATH)")
	jsonOut := flag.Bool("json", false, "emit one report.AppRecord JSON line per application instead of tables")
	progress := flag.Bool("progress", false, "stream live job progress to stderr")
	dbOut := flag.String("db", "", "also write the results database to this file")
	cacheDir := flag.String("cache-dir", "", "on-disk result cache directory shared across runs (empty = no result cache)")
	discoverMode := flag.Bool("discover", false, "append the statically discovered-site table after the selected tables")
	triageTable := flag.Bool("triage", false, "append the static value-range triage table after the selected tables")
	arithWave := flag.Bool("arith", false, "also hunt the discovered arith sites (probe transform) and append a per-application summary; dillo's wave allocates gigabytes of guest memory")
	noTriage := flag.Bool("no-triage", false, "ablation: disable the static triage (no hunt short-circuits; arith sites all hunt)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		// Fail loudly rather than silently ignoring arguments — in
		// particular the old `-json out.json` spelling, whose file role
		// moved to -db when -json became the record-stream mode.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (-json is now a boolean record-stream mode; use -db FILE for the results database)\n", flag.Arg(0))
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One job cache for the whole sweep: the planner's analyses and the
	// local backend's hunts share it, and -cache-dir makes results persist
	// so a repeated sweep is served without re-running any hunt.
	jc := dispatch.NewJobCache(dispatch.CacheConfig{Dir: *cacheDir})
	cfg := harness.Config{Seed: *seed, Workers: *parallel, Cache: jc, Arith: *arithWave,
		Engine: dispatch.Options{NoTriage: *noTriage}}
	var appList []*apps.App
	switch *table {
	case "1":
		// Classification only: no sampling experiments needed.
		appList = apps.Paper()
	case "2":
		appList = apps.Paper()
		cfg.SampleN = *n
	case "samepath":
		appList = apps.Paper()
		cfg.SamePath = true
	case "extended":
		appList = apps.Extended()
		cfg.SampleN = *n
	case "all":
		appList = apps.All()
		cfg.SampleN = *n
		cfg.SamePath = true
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		return 2
	}

	var sink dispatch.Sink
	if *progress {
		var done atomic.Int64
		sink = func(ev dispatch.Event) {
			switch ev.Type {
			case dispatch.EventStarted:
				fmt.Fprintf(os.Stderr, "[diode-tables] %s %s started\n", ev.Job.Kind, ev.Job.Site)
			case dispatch.EventFinished:
				fmt.Fprintf(os.Stderr, "[diode-tables] %s %s done (%d jobs finished)\n",
					ev.Job.Kind, ev.Job.Site, done.Add(1))
			case dispatch.EventCacheHit:
				fmt.Fprintf(os.Stderr, "[diode-tables] %s %s cached (%d jobs finished)\n",
					ev.Job.Kind, ev.Job.Site, done.Add(1))
			}
		}
	}
	var execBackend *dispatch.Exec
	switch *backendName {
	case "local":
		cfg.Sink = sink
	case "exec":
		execBackend = &dispatch.Exec{Binary: *workerBin, Workers: *parallel, Sink: sink, CacheDir: *cacheDir}
		cfg.Backend = execBackend
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (local, exec)\n", *backendName)
		return 2
	}

	outcomes := harness.EvaluateContext(ctx, cfg, appList)
	if *cacheDir != "" || *progress {
		cs := jc.Stats()
		if execBackend != nil {
			// Workers run their own caches; fold their counters in.
			cs = cs.Plus(execBackend.CacheStats())
		}
		fmt.Fprintf(os.Stderr, "[diode-tables] cache: hits=%d misses=%d stores=%d corrupt=%d analysisRuns=%d analysisHits=%d\n",
			cs.Hits, cs.Misses, cs.Stores, cs.CorruptEntries, cs.AnalysisRuns, cs.AnalysisHits)
	}
	failed := false
	for _, o := range outcomes {
		if o.Err != nil {
			failed = true
			fmt.Fprintln(os.Stderr, o.Err)
		}
	}
	if failed || ctx.Err() != nil {
		// No partial tables: a missing application would silently skew the
		// totals row, so any error (or a cancelled sweep) is fatal.
		return 1
	}
	recs := harness.Records(outcomes)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	} else {
		if *table == "1" || *table == "all" {
			fmt.Println(report.Table1(apps.Paper(), recs))
		}
		if *table == "2" || *table == "all" {
			fmt.Println(report.Table2(apps.Paper(), recs))
		}
		if *table == "samepath" || *table == "all" {
			fmt.Println("Same-path constraint satisfiability (§5.4; paper: sat only for")
			fmt.Println("SwfPlay jpeg.c@192 and CWebP jpegdec.c@248):")
			for _, rec := range recs {
				for _, s := range rec.Sites {
					if s.Class == "exposed" && s.SamePathSat != "" {
						fmt.Printf("  %-32s %s\n", s.Site, s.SamePathSat)
					}
				}
			}
			fmt.Println()
		}
		if *table == "extended" || *table == "all" {
			fmt.Println(report.TableExtended(apps.Extended(), recs))
		}
		if *discoverMode {
			out, err := report.TableDiscovered(appList)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println(out)
		}
		if *triageTable {
			out, err := report.TableTriage(appList)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println(out)
		}
		if *arithWave {
			fmt.Println("Arith-site hunts (overflow constraints derived at the arith node;")
			fmt.Println("pruned = statically safe, folded without a solver session):")
			for _, o := range outcomes {
				var pruned, exposed int
				for _, as := range o.Arith {
					if as.Pruned {
						pruned++
					}
					if as.Verdict == core.VerdictExposed {
						exposed++
					}
				}
				fmt.Printf("  %-16s %3d sites: %d exposed, %d pruned\n",
					o.App.Short, len(o.Arith), exposed, pruned)
				for _, as := range o.Arith {
					if as.Verdict == core.VerdictExposed {
						fmt.Printf("    %-48s %s\n", as.Site.Name, as.ErrorType)
					}
				}
			}
			fmt.Println()
		}
	}

	if *dbOut != "" {
		data, err := report.Save(recs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*dbOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "results database written to", *dbOut)
	}
	return 0
}
