package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"diode/internal/cache"
)

// Exec executes jobs by sharding them across spawned worker processes
// speaking the JSON-lines protocol of WorkerMain — the first multi-process
// deployment of the §4 work-queue role. Each worker process runs its shard
// sequentially (process count is the parallelism knob) and re-derives
// analysis from the job records alone, so results are byte-identical to the
// Local backend's at any worker count; a networked backend only has to
// replace the pipes with sockets.
type Exec struct {
	// Binary is the worker executable. Empty means auto-resolve: a
	// "diode-worker" next to the current executable, else $PATH.
	Binary string
	// Env are extra environment entries (os.Environ is inherited).
	Env []string
	// Workers is the number of worker processes; <1 means one.
	Workers int
	// Sink receives progress events forwarded from the workers' event
	// stream.
	Sink Sink
	// CacheDir is the shared on-disk result store handed to every worker
	// process as its -cache-dir flag: sibling workers and repeated runs
	// pointing at the same directory serve each other's results. Empty
	// leaves each worker without a result cache (every job executes).
	CacheDir string

	counters cache.Counters
}

// CacheStats returns the cache counters aggregated from the stats messages
// of every worker process this backend ran, cumulative across Runs.
func (e *Exec) CacheStats() cache.Stats { return e.counters.Snapshot() }

// workerScanBuffer bounds one protocol line (a Result carries a base64
// triggering input, so lines can exceed bufio.Scanner's 64KB default).
const workerScanBuffer = 16 << 20

// ResolveWorkerBinary locates the diode-worker executable the way Exec does:
// Binary if set, else a sibling of the current executable, else $PATH.
func ResolveWorkerBinary(binary string) (string, error) {
	if binary != "" {
		return binary, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "diode-worker")
		if st, err := os.Stat(sibling); err == nil && !st.IsDir() {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("diode-worker"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("dispatch: no diode-worker binary found (set Exec.Binary or install cmd/diode-worker on $PATH)")
}

// Run shards the jobs round-robin across Workers spawned processes and
// streams their results. Worker loss does not abort the sweep: jobs a dead
// worker never reported come back as Results with Err set (carrying the
// worker's stderr), so the folder sees every job accounted for. Cancelling
// ctx kills the workers and closes the stream after the already-reported
// partial results.
func (e *Exec) Run(ctx context.Context, jobs []Job) (<-chan Result, error) {
	bin, err := ResolveWorkerBinary(e.Binary)
	if err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	shards := make([][]Job, workers)
	for i, j := range jobs {
		shards[i%workers] = append(shards[i%workers], j)
	}
	jobByID := make(map[int]Job, len(jobs))
	for _, j := range jobs {
		jobByID[j.ID] = j
	}

	out := make(chan Result)
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, shard := range shards {
		go func(shard []Job) {
			defer wg.Done()
			e.runShard(ctx, bin, shard, jobByID, out)
		}(shard)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// runShard drives one worker process over its shard.
func (e *Exec) runShard(ctx context.Context, bin string, shard []Job, jobByID map[int]Job, out chan<- Result) {
	if len(shard) == 0 {
		return
	}
	var args []string
	if e.CacheDir != "" {
		args = append(args, "-cache-dir", e.CacheDir)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), e.Env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		e.failShard(ctx, shard, nil, out, fmt.Sprintf("dispatch: worker stdin: %v", err))
		return
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		e.failShard(ctx, shard, nil, out, fmt.Sprintf("dispatch: worker stdout: %v", err))
		return
	}
	if err := cmd.Start(); err != nil {
		e.failShard(ctx, shard, nil, out, fmt.Sprintf("dispatch: starting worker %s: %v", bin, err))
		return
	}
	go func() {
		// A worker that dies mid-batch breaks the pipe; the write error is
		// deliberately dropped — the unreported jobs are accounted for below.
		_ = WriteJobs(stdin, shard)
		stdin.Close()
	}()

	seen := make(map[int]bool, len(shard))
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), workerScanBuffer)
	for sc.Scan() {
		var msg wireMsg
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			continue // tolerate stray output on stdout
		}
		switch {
		case msg.Type == "result" && msg.Result != nil:
			seen[msg.Result.JobID] = true
			if e.Sink != nil && msg.Result.Err == "" {
				// The worker suppresses its own finished/cache-hit events
				// (the result message carries the final state), so the parent
				// synthesizes them — keeping the Sink contract identical
				// across backends: jobs that never began executing
				// (validation/resolution failures, lost workers) emit no
				// events on any backend, and cache-served jobs emit a single
				// cache-hit event.
				if job, ok := jobByID[msg.Result.JobID]; ok {
					evType := EventFinished
					if msg.Result.Cached {
						evType = EventCacheHit
					}
					e.Sink(Event{Type: evType, Job: job, Result: msg.Result})
				}
			}
			select {
			case out <- *msg.Result:
			case <-ctx.Done():
			}
		case msg.Type == "stats" && msg.Stats != nil:
			e.counters.Add(*msg.Stats)
		case msg.Type == "event" && msg.Event != nil && e.Sink != nil:
			job, ok := jobByID[msg.Event.JobID]
			if !ok {
				continue
			}
			e.Sink(Event{Type: msg.Event.Type, Job: job, Iteration: msg.Event.Iteration})
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// The parent stopped reading stdout (oversized line, read error). A
		// worker mid-write would block forever on the full pipe and hang
		// cmd.Wait; kill it so the shard fails loudly instead of deadlocking.
		_ = cmd.Process.Kill()
	}
	err = cmd.Wait()
	if ctx.Err() != nil {
		return // cancelled: partial results are the contract
	}
	if err != nil || scanErr != nil || len(seen) < len(shard) {
		reason := "dispatch: worker reported no result"
		switch {
		case scanErr != nil:
			reason = fmt.Sprintf("dispatch: reading worker output: %v", scanErr)
		case err != nil:
			reason = fmt.Sprintf("dispatch: worker exited: %v", err)
		}
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			reason += ": " + msg
		}
		e.failShard(ctx, shard, seen, out, reason)
	}
}

// failShard reports every unreported job of a shard as failed.
func (e *Exec) failShard(ctx context.Context, shard []Job, seen map[int]bool, out chan<- Result, reason string) {
	for _, j := range shard {
		if seen[j.ID] {
			continue
		}
		r := Result{JobID: j.ID, Kind: j.Kind, App: j.App, Site: j.Site, Err: reason}
		select {
		case out <- r:
		case <-ctx.Done():
			return
		}
	}
}
