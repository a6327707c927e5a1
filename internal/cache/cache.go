// Package cache is the content-addressed caching layer under the dispatch
// surface: canonical fingerprints for guest programs and their input formats,
// a singleflight-deduplicating in-memory LRU (analyses), an optional on-disk
// result store with corruption-as-miss semantics, and the hit/miss counters
// the stats surfaces report. Every job Result is a pure function of its serialized record plus
// the guest program (the dispatch layer's determinism seam), which is what
// makes outputs safe to key by content: a cache key changes exactly when a
// result could.
package cache

import "sync"

// Stats is a point-in-time snapshot of cache activity. It is serializable
// (diode-worker processes report theirs to the parent over the wire protocol)
// and additive across caches via Plus.
type Stats struct {
	// Hits counts job results served from the disk store without executing.
	Hits int64 `json:"hits,omitempty"`
	// Misses counts job results that had to execute.
	Misses int64 `json:"misses,omitempty"`
	// Stores counts results written to the on-disk store.
	Stores int64 `json:"stores,omitempty"`
	// CorruptEntries counts on-disk entries rejected as truncated, corrupt or
	// version-mismatched; each was treated as a miss, never an error.
	CorruptEntries int64 `json:"corruptEntries,omitempty"`
	// AnalysisRuns counts Analyzer executions (stages 1–3); AnalysisHits
	// counts analysis lookups served from memoized targets.
	AnalysisRuns int64 `json:"analysisRuns,omitempty"`
	AnalysisHits int64 `json:"analysisHits,omitempty"`
}

// Plus returns the field-wise sum of two snapshots.
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		Hits:           s.Hits + o.Hits,
		Misses:         s.Misses + o.Misses,
		Stores:         s.Stores + o.Stores,
		CorruptEntries: s.CorruptEntries + o.CorruptEntries,
		AnalysisRuns:   s.AnalysisRuns + o.AnalysisRuns,
		AnalysisHits:   s.AnalysisHits + o.AnalysisHits,
	}
}

// Counters accumulates cache activity; safe for concurrent use. The zero
// value is ready. Each event adds a Stats delta, so every counter is declared
// once, in Stats, and summed once, in Plus.
type Counters struct {
	mu    sync.Mutex
	total Stats
}

// Add folds a delta into the totals: one event (Stats{Hits: 1}) or a worker
// process's reported stats merged into the parent's.
func (c *Counters) Add(d Stats) {
	c.mu.Lock()
	c.total = c.total.Plus(d)
	c.mu.Unlock()
}

// Snapshot returns the current totals.
func (c *Counters) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
