package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"

	"diode/internal/absint"
	"diode/internal/apps"
	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/discover"
)

// keyVersion versions the cache-key derivation itself: the key layout, the
// canonical options encoding, and everything a fingerprint cannot see (format
// fix-up behavior, Analyzer/Hunter semantics). Bump it whenever a result
// could change for unchanged inputs; every existing key then misses at once.
// Version 2: jobs carry the structured site identity (kind + node path) and
// keys carry the discovery-pass version.
// Version 3: keys carry the static-triage pass version (absint.Version) —
// triage verdicts ride on targets and can short-circuit hunts, so a triage
// algorithm change can change results for unchanged programs — and options
// gained NoTriage.
// Version 4: a hunt whose β sampling runs out of its conflict budget before
// finding a model reports unknown instead of unsatisfiable, and options lost
// Portfolio.
// Version 5: restart sampling's input-bit decision focus lapses inside a
// draw, so a β sampling used to exhaust its conflict budget on (unknown) can
// now be refuted (unsatisfiable); results also carry the CDCL conflict count.
// Version 6: guest fuel counts control transfers (branch decisions and
// calls) instead of AST nodes, so a run that exhausts its fuel can stop at a
// different point.
const keyVersion = "6"

// maxAnalyses bounds a JobCache's in-memory analysis LRU, in entries.
const maxAnalyses = 64

// CacheConfig configures a JobCache. The zero value memoizes analyses and
// caches no results.
type CacheConfig struct {
	// Dir enables the on-disk Result store rooted at this directory. Worker
	// processes and repeated runs pointing at the same directory share it.
	// Empty caches no results: every job executes.
	Dir string
	// NoResults disables result caching even when Dir is set, so every job
	// executes. Analysis memoization remains: it is what keeps a single
	// sweep from re-deriving targets per site, cache or no cache.
	NoResults bool
}

// JobCache is the content-addressed cache the whole execution surface
// threads through: Execute consults its disk store before constructing a
// Hunter, the Local backend shares one across Runs, worker processes build
// one from -cache-dir, and the harness planner resolves analysis through it.
// Analyses are memoized in memory and applications registered by Targets
// are kept for the cache's lifetime; results live in the disk store or
// nowhere. Keys are derived from content fingerprints (JobKey), never from
// registry names, so a store shared across processes — or surviving a
// program edit — can never serve a stale result.
// Construction cannot fail: an unusable directory degrades to a cache that
// misses and stores nothing on disk.
type JobCache struct {
	mu         sync.Mutex
	registered map[string]*apps.App // short name → first application Targets saw under it
	analyses   *cache.LRU           // analysis key → analysisOut (targets)
	store      *cache.Store         // nil when no Dir or NoResults
	counters   cache.Counters
}

// NewJobCache returns a cache for the given configuration.
func NewJobCache(cfg CacheConfig) *JobCache {
	jc := &JobCache{
		registered: make(map[string]*apps.App),
		analyses:   cache.NewLRU(maxAnalyses),
	}
	if cfg.Dir != "" && !cfg.NoResults {
		jc.store = cache.NewStore(cfg.Dir)
	}
	return jc
}

// Stats returns a snapshot of the cache's activity counters.
func (c *JobCache) Stats() cache.Stats { return c.counters.Snapshot() }

// analysisOut embeds errors in LRU values so a singleflight waiter can
// distinguish real outcomes from cancellations (see LRU.Do).
type analysisOut struct {
	targets []*core.Target
	err     error
}

// App resolves a short name to an application: one a caller registered by
// passing it to Targets, else the shared registry instance (apps.ByName).
func (c *JobCache) App(short string) (*apps.App, error) {
	c.mu.Lock()
	a, ok := c.registered[short]
	c.mu.Unlock()
	if ok {
		return a, nil
	}
	return apps.ByName(short)
}

// Targets returns the application's analyzed target sites, running the
// Analyzer (stages 1–3) on first use per (program fingerprint, options
// subset) and memoizing across every caller of the cache — pool goroutines,
// sweep waves, the harness planner. Analysis ignores the job seed, so one
// entry serves every site and seed. A cancellation is returned but never
// memoized: a later call under a live context re-analyzes, including a
// singleflight waiter whose own context outlived the analyzing goroutine's.
func (c *JobCache) Targets(ctx context.Context, app *apps.App, opts Options) ([]*core.Target, error) {
	// Register the caller's instance so jobs naming the same application
	// resolve to it, custom applications outside the registry included.
	c.mu.Lock()
	if _, ok := c.registered[app.Short]; !ok {
		c.registered[app.Short] = app
	}
	c.mu.Unlock()
	key := cache.Key("analysis", keyVersion, app.Fingerprint(), canonicalOpts(opts))
	for {
		v, hit := c.analyses.Do(key, func() (any, bool) {
			c.counters.Add(cache.Stats{AnalysisRuns: 1})
			targets, err := core.NewAnalyzer(app, opts.Core(0)).AnalyzeContext(ctx)
			return analysisOut{targets: targets, err: err}, err == nil
		})
		out := v.(analysisOut)
		if hit {
			if out.err != nil && isCtxErr(out.err) && ctx.Err() == nil {
				continue
			}
			if out.err == nil {
				c.counters.Add(cache.Stats{AnalysisHits: 1})
			}
		}
		return out.targets, out.err
	}
}

// JobKey derives the content-addressed cache key for a job: the application
// fingerprint plus every job field that can influence its Result — kind,
// structured site identity, derived seed, sample budget, the enforced-label
// list in order, and the canonical encoding of the options subset — and the
// discovery-pass version, so results cached under an older site vocabulary
// miss cleanly when the discovery algorithm changes. Job.ID (a batch-local
// handle) and the application's registry name (the fingerprint is the real
// identity) are deliberately excluded.
func JobKey(fingerprint string, job Job) string {
	parts := []string{
		"result", keyVersion, discover.Version, absint.Version, fingerprint,
		string(job.Kind), job.Site, job.SiteKind, job.SitePath,
		strconv.FormatInt(job.Seed, 10),
		strconv.Itoa(job.SampleN),
		strconv.Itoa(len(job.Enforced)),
	}
	parts = append(parts, job.Enforced...)
	parts = append(parts, canonicalOpts(job.Opts))
	return cache.Key(parts...)
}

// canonicalOpts is the canonical encoding of the options subset:
// encoding/json writes struct fields in declaration order with deterministic
// scalar formatting, so equal subsets encode identically in every process.
func canonicalOpts(o Options) string {
	b, err := json.Marshal(o)
	if err != nil {
		panic("dispatch: options subset not serializable: " + err.Error())
	}
	return string(b)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lookupDisk consults the on-disk store for a successful Result, counting a
// corrupt entry — a torn frame, or decoded garbage behind a valid one — and
// treating it as a miss.
func (c *JobCache) lookupDisk(key string) (Result, bool) {
	var r Result
	payload, status := c.store.Get(key)
	switch {
	case status == cache.DiskMiss:
		return r, false
	case status == cache.DiskHit && json.Unmarshal(payload, &r) == nil && r.Err == "":
		return r, true
	}
	c.counters.Add(cache.Stats{CorruptEntries: 1})
	return Result{}, false
}

// storeDisk writes a successful Result to the on-disk store, best-effort.
func (c *JobCache) storeDisk(key string, res Result) {
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if c.store.Put(key, payload) {
		c.counters.Add(cache.Stats{Stores: 1})
	}
}
