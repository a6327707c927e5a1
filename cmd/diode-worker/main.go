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
//	diode-worker [-cache-dir DIR] < jobs.jsonl > results.jsonl
//
// -cache-dir points at the shared on-disk result store; without it no
// result is cached and every job executes. A SIGINT/SIGTERM cancels the
// in-flight job at its next cancellation point and exits non-zero; results
// already written remain valid.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"diode/internal/dispatch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch.WorkerMain(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if !errors.Is(err, ctx.Err()) || ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "diode-worker:", err)
		}
		os.Exit(1)
	}
}
