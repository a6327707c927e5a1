// Command diode-worker is the worker-process half of the dispatch layer's
// Exec backend — the paper's §4 work-queue worker. It reads one JSON job per
// line from stdin (dispatch.Job: a hunt, a same-path experiment or a
// success-rate experiment, each carrying application, site, derived seed and
// the engine-options subset), executes them sequentially, and writes one JSON
// message per line to stdout: interleaved progress events plus exactly one
// result per job. Process-level parallelism is the parent's job — it spawns
// one worker per shard.
//
// The worker is stateless across invocations and derives everything (analysis
// targets, enforced constraints) deterministically from the job records, so
// any worker on any machine produces byte-identical results for the same
// batch.
//
// Usage:
//
//	diode-worker < jobs.jsonl > results.jsonl
//	diode-worker -discover
//
// -discover bypasses the job loop: the worker prints one JSON line per known
// application carrying its statically discovered sites and the discovery
// version, then exits. Dispatch parents use it to confirm a worker binary's
// discovery pass agrees with their own before sharding jobs to it.
//
// A SIGINT/SIGTERM cancels the in-flight job at its next cancellation point
// and exits non-zero; results already written remain valid.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"diode"
	"diode/internal/dispatch"
)

func main() {
	envCfg := dispatch.WorkerConfigFromEnv()
	cacheDir := flag.String("cache-dir", envCfg.CacheDir,
		"shared on-disk result cache directory (also $"+dispatch.WorkerCacheDirEnv+"); empty = no result cache")
	noCache := flag.Bool("no-cache", envCfg.NoCache,
		"disable result caching (also $"+dispatch.WorkerNoCacheEnv+"=1)")
	discoverMode := flag.Bool("discover", false,
		"print one JSON line per application with its discovered sites, then exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "diode-worker: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *discoverMode {
		enc := json.NewEncoder(os.Stdout)
		for _, app := range diode.Applications() {
			sites, err := app.Discovered()
			if err != nil {
				fmt.Fprintf(os.Stderr, "diode-worker: %s: %v\n", app.Short, err)
				os.Exit(1)
			}
			rec := struct {
				App             string                 `json:"app"`
				DiscoverVersion string                 `json:"discoverVersion"`
				Sites           []diode.DiscoveredSite `json:"sites"`
			}{app.Short, diode.DiscoverVersion, sites}
			if err := enc.Encode(&rec); err != nil {
				fmt.Fprintln(os.Stderr, "diode-worker:", err)
				os.Exit(1)
			}
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := dispatch.WorkerConfig{CacheDir: *cacheDir, NoCache: *noCache}
	if err := dispatch.WorkerMain(ctx, os.Stdin, os.Stdout, cfg); err != nil {
		if !errors.Is(err, ctx.Err()) || ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "diode-worker:", err)
		}
		os.Exit(1)
	}
}
