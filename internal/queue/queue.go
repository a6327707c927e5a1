// Package queue is a bounded, order-preserving in-process worker pool. Its
// one caller is the harness, which analyzes a sweep's applications on it
// before planning jobs; per-site work fans out through internal/dispatch
// instead, whose Local backend runs its own pool. Items run on a bounded
// pool and results keep their input order, so table rows come out
// deterministic.
package queue

import "sync"

// Map runs f over every item on at most workers goroutines and returns the
// results in input order. workers < 1 means one worker.
func Map[T, R any](workers int, items []T, f func(T) R) []R {
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
