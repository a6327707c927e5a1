package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"diode/internal/cache"
)

// The diode-worker wire protocol: the parent writes one JSON Job per line to
// the worker's stdin and closes it; the worker writes one JSON wireMsg per
// line to stdout — interleaved progress events as they happen, exactly one
// result message per job, and one final stats message summarizing the
// worker's cache activity when the batch ends. Lines are self-delimiting
// JSON, so the protocol survives reordering of workers, partial batches and
// being stored as-is in a results log.
type wireMsg struct {
	Type string `json:"type"` // "result" | "event" | "stats"
	// Result is the final outcome of a job (Type "result").
	Result *Result `json:"result,omitempty"`
	// Event is a progress observation (Type "event").
	Event *wireEvent `json:"event,omitempty"`
	// Stats is the worker's cache-counter snapshot (Type "stats").
	Stats *cache.Stats `json:"stats,omitempty"`
}

// wireEvent is the serializable projection of an Event: jobs are identified
// by ID (the parent holds the Job records and re-attaches them).
type wireEvent struct {
	Type      EventType `json:"type"`
	JobID     int       `json:"jobID"`
	Iteration int       `json:"iteration,omitempty"`
}

// WriteJobs encodes jobs as JSON lines — the worker stdin format.
func WriteJobs(w io.Writer, jobs []Job) error {
	enc := json.NewEncoder(w)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("dispatch: encoding job %d: %w", j.ID, err)
		}
	}
	return nil
}

// ReadJobs decodes a JSON-lines job batch — the inverse of WriteJobs.
func ReadJobs(r io.Reader) ([]Job, error) {
	dec := newJobDecoder(r)
	var jobs []Job
	for {
		var j Job
		if err := dec.Decode(&j); err != nil {
			if errors.Is(err, io.EOF) {
				return jobs, nil
			}
			return jobs, fmt.Errorf("dispatch: corrupt job stream: %w", err)
		}
		jobs = append(jobs, j)
	}
}

// newJobDecoder decodes a JSON-lines job stream, rejecting fields the Job
// record lacks: a job naming an option this build does not have would
// otherwise run silently with the defaults.
func newJobDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}

// WorkerMain is the body of the diode-worker process: cmd/diode-worker
// wraps it around its argument list and stdin/stdout, and tests embed it
// behind an env-var switch so the Exec backend can be exercised without
// building a separate binary. It parses the worker's one flag from args:
// -cache-dir names the shared on-disk result store (empty: no result
// cache, so every job executes). It executes jobs sequentially in
// arrival order — process-level parallelism is the Exec backend's job —
// sharing one JobCache across the batch (backed by the -cache-dir store, so
// sibling workers and repeated runs share results), and flushes every
// message immediately so the parent observes progress live. At end of batch
// it reports its cache counters as a stats message. It returns when the job
// stream ends, or with ctx.Err() after a cancellation (in-flight work aborts
// through the usual cancellation points).
func WorkerMain(ctx context.Context, args []string, r io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("diode-worker", flag.ContinueOnError)
	cacheDir := fs.String("cache-dir", "", "shared on-disk result cache directory (empty = no result cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emit := func(msg wireMsg) error {
		if err := enc.Encode(msg); err != nil {
			return err
		}
		return bw.Flush()
	}
	var sinkErr error
	sink := Sink(func(ev Event) {
		if ev.Type == EventFinished || ev.Type == EventCacheHit {
			return // the result message carries the final state (incl. Cached)
		}
		we := &wireEvent{Type: ev.Type, JobID: ev.Job.ID, Iteration: ev.Iteration}
		if err := emit(wireMsg{Type: "event", Event: we}); err != nil && sinkErr == nil {
			sinkErr = err
		}
	})

	jc := NewJobCache(CacheConfig{Dir: *cacheDir})
	dec := newJobDecoder(r)
	for {
		var job Job
		if err := dec.Decode(&job); err != nil {
			if errors.Is(err, io.EOF) {
				stats := jc.Stats()
				if err := emit(wireMsg{Type: "stats", Stats: &stats}); err != nil {
					return fmt.Errorf("dispatch: worker: writing stats: %w", err)
				}
				return nil
			}
			return fmt.Errorf("dispatch: worker: corrupt job stream: %w", err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res, err := Execute(ctx, job, jc, sink)
		if err != nil {
			return err
		}
		if sinkErr != nil {
			return fmt.Errorf("dispatch: worker: writing event: %w", sinkErr)
		}
		if err := emit(wireMsg{Type: "result", Result: &res}); err != nil {
			return fmt.Errorf("dispatch: worker: writing result: %w", err)
		}
	}
}
