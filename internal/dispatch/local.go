package dispatch

import (
	"context"
	"sync"

	"diode/internal/cache"
)

// Local executes jobs on a bounded goroutine pool inside the calling process
// — the zero-setup default backend. One JobCache is shared across every
// Run of the backend (a job's Result is a pure function of its record plus
// the guest program), so a multi-wave sweep — the harness runs hunts, then
// same-path + target-only, then enforced rates on one backend — analyzes
// each application once, and a repeated batch is served from the result
// cache without hunting at all.
type Local struct {
	// Workers bounds pool concurrency; <1 means one worker.
	Workers int
	// Sink receives progress events (started / iteration / finished, or
	// cache-hit) from the pool goroutines.
	Sink Sink
	// Cache is the job cache Execute consults; shared caches make repeated
	// and concurrent sweeps warm. Nil means a private in-memory cache,
	// created on first use and kept for the backend's lifetime.
	Cache *JobCache

	cacheOnce sync.Once
}

// jobCache resolves the backend's cache, defaulting a private in-memory one.
func (l *Local) jobCache() *JobCache {
	l.cacheOnce.Do(func() {
		if l.Cache == nil {
			l.Cache = NewJobCache(CacheConfig{})
		}
	})
	return l.Cache
}

// CacheStats returns a snapshot of the backend's cache counters.
func (l *Local) CacheStats() cache.Stats { return l.jobCache().Stats() }

// Run dispatches the jobs on the pool. Results stream in completion order;
// the channel closes when all jobs finished or ctx was cancelled. After a
// cancellation, jobs not yet started are skipped and in-flight jobs abort at
// their next cancellation point (iteration boundary or mid-run interpreter
// poll), so the stream drains promptly with partial results.
func (l *Local) Run(ctx context.Context, jobs []Job) (<-chan Result, error) {
	workers := l.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make(chan Result)
	jc := l.jobCache()
	go func() {
		defer close(out)
		if len(jobs) == 0 {
			return
		}
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						continue // drain: unstarted jobs are skipped
					}
					r, err := Execute(ctx, jobs[i], jc, l.Sink)
					if err != nil {
						continue // cancelled mid-job: no final result
					}
					select {
					case out <- r:
					case <-ctx.Done():
						return
					}
				}
			}()
		}
		for i := range jobs {
			select {
			case next <- i:
			case <-ctx.Done():
			}
		}
		close(next)
		wg.Wait()
	}()
	return out, nil
}
