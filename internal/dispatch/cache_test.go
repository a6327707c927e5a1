package dispatch

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"diode/internal/apps"
	"diode/internal/discover"
)

// optionsKeyFlips maps every options field (core.Settings, which
// dispatch.Options names), by name, to a mutation that must change the cache
// key. TestJobKeySensitivity walks the struct by reflection and fails on any
// field without an entry, and the diodelint options-coverage analyzer checks
// the same property statically against the core.Settings declaration — so
// adding an options field without a flip case here fails both the test run
// and `make lint`.
var optionsKeyFlips = map[string]func(*Options){
	"NoTriage": func(o *Options) { o.NoTriage = true },
}

// jobKeyFlips maps every key-bearing dispatch.Job field, by name, to a
// mutation that must change the cache key; jobKeyExcluded lists the fields
// deliberately outside the key, each checked to NOT change it. Every Job
// field must appear in exactly one of the two (enforced below by reflection
// and statically by diodelint).
var jobKeyFlips = map[string]func(*Job){
	"Kind":     func(j *Job) { j.Kind = KindHunt },
	"Site":     func(j *Job) { j.Site = "png.c@126" },
	"SiteKind": func(j *Job) { j.SiteKind = "" },
	"SitePath": func(j *Job) { j.SitePath = "s4" },
	"Seed":     func(j *Job) { j.Seed = 78 },
	"SampleN":  func(j *Job) { j.SampleN = 11 },
	"Enforced": func(j *Job) { j.Enforced = j.Enforced[:1] },
	"Opts":     func(j *Job) { j.Opts = Options{NoTriage: true} },
}

var jobKeyExcluded = map[string]func(*Job){
	"ID":  func(j *Job) { j.ID = 99 },       // batch-local handle
	"App": func(j *Job) { j.App = "other" }, // the fingerprint is the identity
}

// TestJobKeySensitivity checks the cache-key contract: every job field that
// can influence a Result changes the key, and the batch-local ID does not.
// Field coverage is enforced structurally: each field of Options and Job
// must have an entry in the flip tables above.
func TestJobKeySensitivity(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.Anonymous {
			continue // an embedded struct: its promoted fields are visited too
		}
		if _, ok := optionsKeyFlips[f.Name]; !ok {
			t.Errorf("Options.%s has no flip case in optionsKeyFlips", f.Name)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Job{})) {
		_, flips := jobKeyFlips[f.Name]
		_, excluded := jobKeyExcluded[f.Name]
		if flips == excluded {
			t.Errorf("Job.%s must be in exactly one of jobKeyFlips / jobKeyExcluded", f.Name)
		}
	}

	base := Job{
		ID: 1, Kind: KindSuccessRate, App: "dillo", Site: "png.c@125",
		SiteKind: "alloc", SitePath: "s3",
		Seed: 77, SampleN: 10, Enforced: []string{"a", "b"},
	}
	const fp = "0123abcd"
	baseKey := JobKey(fp, base)
	if baseKey != JobKey(fp, base) {
		t.Fatal("JobKey is not deterministic")
	}

	mutate := func(f func(j *Job)) string {
		j := base
		j.Enforced = append([]string(nil), base.Enforced...)
		f(&j)
		return JobKey(fp, j)
	}
	cases := map[string]string{}
	for name, f := range jobKeyFlips {
		cases["job."+name] = mutate(f)
	}
	// Options flips must change the key too, but they are kept out of the
	// collision check: with one options field, flipping it is the job.Opts
	// flip.
	for name, f := range optionsKeyFlips {
		flip := f
		if mutate(func(j *Job) { flip(&j.Opts) }) == baseKey {
			t.Errorf("opts.%s flip did not change the key", name)
		}
	}
	// Order-sensitivity of the enforced-label list, beyond presence.
	cases["job.Enforced-order"] = mutate(func(j *Job) {
		j.Enforced[0], j.Enforced[1] = j.Enforced[1], j.Enforced[0]
	})
	cases["fingerprint"] = JobKey("ffff0000", base)

	seen := map[string]string{baseKey: "base"}
	for name, key := range cases {
		if key == baseKey {
			t.Errorf("%s flip did not change the key", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}

	// The excluded fields must NOT influence the key: the same content under
	// a different batch ID or registry name must hit.
	for name, f := range jobKeyExcluded {
		if mutate(f) != baseKey {
			t.Errorf("Job.%s leaked into the key; identical content would miss", name)
		}
	}
}

// TestKeyAndWireGolden pins the byte-level contracts every on-disk cache
// entry and diode-worker batch depends on: the canonical options encoding,
// the JobKey derivation and the Job wire encoding, for a fully populated
// record. A restructure of the options or job types that changed any of
// them would silently invalidate every stored result (or break mixed-version
// workers) without failing any behavioral test; a deliberate change must
// bump keyVersion and update these strings.
//
// Both keys moved with keyVersion "6": guest fuel now counts control
// transfers (branch decisions and calls) rather than AST nodes, so a run
// that exhausts its fuel can stop at a different point, and a result stored
// under version 5 could differ for unchanged inputs. (Version "5" moved them
// when restart sampling's decision focus began to lapse inside a draw.)
//
// The fully populated record's wantOpts, wantKey and wantWire moved without
// a keyVersion bump when the four ablation switches (solverMode,
// oneShotSampling, disableCompression, disableRelevanceFilter) left the
// options record: it no longer carries them. Every removed field was
// omitempty, so a job at its default (the only setting any caller used)
// encodes, keys and stores byte-identically — wantHuntKey does not move —
// and a stream naming a removed field is rejected as corrupt
// (TestJobStreamRejectsUnknownFields) rather than served a stale result.
//
// They moved the same way, again without a keyVersion bump, when the
// initial-attempt count, the enforcement bound and the guest fuel left the
// record for constants (6, 40 and interp.DefaultFuel, the values every run
// already used): the fully populated record now carries only noTriage. The
// three fields were omitempty and no caller set them, so a default-options
// job still encodes as {} and wantHuntKey — like every key a stored result
// sits under — does not move.
func TestKeyAndWireGolden(t *testing.T) {
	opts := Options{NoTriage: true}
	const wantOpts = `{"noTriage":true}`
	if got := canonicalOpts(opts); got != wantOpts {
		t.Errorf("canonicalOpts:\n got %s\nwant %s", got, wantOpts)
	}
	if got := canonicalOpts(Options{}); got != "{}" {
		t.Errorf("canonicalOpts of the zero options = %s, want {}", got)
	}

	job := Job{
		ID: 5, Kind: KindSuccessRate, App: "dillo", Site: "dillo:png.c@203",
		SiteKind: "alloc", SitePath: "s7.then.s2", Seed: -8070450532247928832,
		SampleN: 200, Enforced: []string{"png.c@140", "png.c@155"}, Opts: opts,
	}
	const wantKey = "8914c7dc8e62bccd03947694121e4712fd30c051f35b57347d460fa79fedaefa"
	if got := JobKey("0123456789abcdef", job); got != wantKey {
		t.Errorf("JobKey = %s, want %s", got, wantKey)
	}
	hunt := Job{ID: 1, Kind: KindHunt, App: "vlc", Site: "vlc:wav.c@147", SiteKind: "alloc", SitePath: "s1", Seed: 42}
	const wantHuntKey = "cf7eb55bd72583c7b21c359c953db993bed7f5ed6b47ca174a544f09a25620dc"
	if got := JobKey("fedcba9876543210", hunt); got != wantHuntKey {
		t.Errorf("JobKey (default options) = %s, want %s", got, wantHuntKey)
	}

	const wantWire = `{"id":5,"kind":"success-rate","app":"dillo","site":"dillo:png.c@203",` +
		`"siteKind":"alloc","sitePath":"s7.then.s2","seed":-8070450532247928832,"sampleN":200,` +
		`"enforced":["png.c@140","png.c@155"],"opts":` + wantOpts + `}`
	wire, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != wantWire {
		t.Errorf("job wire encoding:\n got %s\nwant %s", wire, wantWire)
	}
}

// eventLog is a concurrency-safe sink recorder.
type eventLog struct {
	mu     sync.Mutex
	counts map[EventType]int
}

func newEventLog() *eventLog { return &eventLog{counts: map[EventType]int{}} }

func (l *eventLog) sink() Sink {
	return func(ev Event) {
		l.mu.Lock()
		l.counts[ev.Type]++
		l.mu.Unlock()
	}
}

func (l *eventLog) count(t EventType) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[t]
}

// TestJobCacheKeepsRegisteredApps pins that an application registered
// through Targets stays resolvable by name for the cache's lifetime, however
// many other applications pass through the cache after it. Here 40 arith
// probe programs do, as an arith wave's analyses would.
func TestJobCacheKeepsRegisteredApps(t *testing.T) {
	ctx := context.Background()
	base, err := apps.ByName("gifview")
	if err != nil {
		t.Fatal(err)
	}
	custom := &apps.App{Name: "gifview (custom)", Short: "custom-gifview", Program: base.Program, Format: base.Format}
	jc := NewJobCache(CacheConfig{})
	targets, err := jc.Targets(ctx, custom, Options{})
	if err != nil || len(targets) == 0 {
		t.Fatalf("custom analysis: %d targets, err %v", len(targets), err)
	}
	probes := 0
	for _, short := range []string{"gifview", "vlc"} {
		a, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := a.Discovered()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			if s.Kind != discover.KindArith || probes == 40 {
				continue
			}
			p, err := a.Probe(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jc.Targets(ctx, p, Options{}); err != nil {
				t.Fatalf("probe %s: %v", p.Short, err)
			}
			probes++
		}
	}
	if probes != 40 {
		t.Fatalf("analyzed %d probes, want 40", probes)
	}
	res, err := Execute(ctx, SiteJob(KindHunt, custom.Short, targets[0].Info, 1, Options{}), jc, nil)
	if err != nil || res.Err != "" {
		t.Fatalf("job on the registered application after 40 probe analyses: err %v, result error %q", err, res.Err)
	}
}

// TestLocalWarmRun checks the warm path on a shared Local backend: a second
// Collect of the same batch executes nothing — every result is served from
// the disk store, marked Cached, byte-identical to the cold run, and
// announced by EventCacheHit instead of the started/finished pair.
func TestLocalWarmRun(t *testing.T) {
	jobs, _ := huntBatch(t, "dillo", 7)
	jc := NewJobCache(CacheConfig{Dir: t.TempDir()})
	coldLog := newEventLog()
	backend := &Local{Workers: runtime.GOMAXPROCS(0), Cache: jc, Sink: coldLog.sink()}
	cold, err := Collect(context.Background(), backend, jobs)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := jc.Stats()
	if coldStats.Misses != int64(len(jobs)) || coldStats.AnalysisRuns != 1 {
		t.Fatalf("cold stats %+v, want %d misses and 1 analysis run", coldStats, len(jobs))
	}
	if coldLog.count(EventCacheHit) != 0 {
		t.Fatalf("cold run emitted %d cache-hit events", coldLog.count(EventCacheHit))
	}
	for _, r := range cold {
		if r.Cached {
			t.Fatalf("cold result for job %d marked Cached", r.JobID)
		}
	}

	warmLog := newEventLog()
	backend.Sink = warmLog.sink()
	warm, err := Collect(context.Background(), backend, jobs)
	if err != nil {
		t.Fatal(err)
	}
	warmStats := jc.Stats()
	if warmStats.Misses != coldStats.Misses {
		t.Errorf("warm run executed %d jobs, want 0", warmStats.Misses-coldStats.Misses)
	}
	if got := warmStats.Hits - coldStats.Hits; got != int64(len(jobs)) {
		t.Errorf("warm run had %d hits, want %d", got, len(jobs))
	}
	if warmStats.AnalysisRuns != coldStats.AnalysisRuns {
		t.Errorf("warm run re-ran analysis (%d runs)", warmStats.AnalysisRuns)
	}
	if got := warmLog.count(EventCacheHit); got != len(jobs) {
		t.Errorf("warm run emitted %d cache-hit events, want %d", got, len(jobs))
	}
	if got := warmLog.count(EventStarted) + warmLog.count(EventFinished); got != 0 {
		t.Errorf("warm run emitted %d started/finished events, want 0", got)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Errorf("warm result for job %d not marked Cached", warm[i].JobID)
		}
	}
	a, b := normalizeResults(cold), normalizeResults(warm)
	for i := range b {
		b[i].Cached = false
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("warm results diverged from cold:\ncold: %+v\nwarm: %+v", a, b)
	}
}

// TestIdenticalJobsRestamped checks that identical jobs inside one batch,
// run concurrently against a shared store, give identical results — whether
// each executed or read another's stored result — each restamped with its
// own batch ID.
func TestIdenticalJobsRestamped(t *testing.T) {
	jobs, _ := huntBatch(t, "dillo", 3)
	batch := make([]Job, 4)
	for i := range batch {
		batch[i] = jobs[0]
		batch[i].ID = i
	}
	jc := NewJobCache(CacheConfig{Dir: t.TempDir()})
	results, err := Collect(context.Background(), &Local{Workers: 4, Cache: jc}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats := jc.Stats(); stats.Hits+stats.Misses != int64(len(batch)) || stats.Misses == 0 {
		t.Errorf("stats %+v, want %d lookups with at least one execution", stats, len(batch))
	}
	results = normalizeResults(results)
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("job %d: %s", r.JobID, r.Err)
		}
		if r.JobID != i {
			t.Fatalf("results restamped onto IDs %v, want 0..%d", results, len(batch)-1)
		}
		r.JobID, r.Cached = 0, false
		want := results[0]
		want.Cached = false
		if !reflect.DeepEqual(r, want) {
			t.Errorf("job %d diverged from job 0:\n got %+v\nwant %+v", i, r, want)
		}
	}
}

// TestStorelessCacheExecutesEveryJob checks that a JobCache without a disk
// store keeps no results: the same job run twice executes twice, neither
// result is Cached, and only the analysis is memoized.
func TestStorelessCacheExecutesEveryJob(t *testing.T) {
	jobs, _ := huntBatch(t, "dillo", 3)
	jc := NewJobCache(CacheConfig{})
	for round := 1; round <= 2; round++ {
		r, err := Execute(context.Background(), jobs[0], jc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != "" || r.Cached {
			t.Fatalf("round %d: err %q, cached %v", round, r.Err, r.Cached)
		}
	}
	stats := jc.Stats()
	if stats.Misses != 2 || stats.Hits != 0 || stats.AnalysisRuns != 1 {
		t.Errorf("stats %+v, want 2 misses, 0 hits and 1 analysis run", stats)
	}
}

// TestDiskCorruptionMidSuite is the resilience acceptance test: entries
// truncated or bit-flipped between runs count as misses with CorruptEntries
// incremented — the affected jobs re-execute to identical results and the
// suite never sees an error.
func TestDiskCorruptionMidSuite(t *testing.T) {
	dir := t.TempDir()
	jobs, _ := huntBatch(t, "dillo", 7)
	if len(jobs) < 3 {
		t.Fatalf("need ≥3 jobs to corrupt a subset, have %d", len(jobs))
	}
	cold, err := Collect(context.Background(),
		&Local{Workers: 2, Cache: NewJobCache(CacheConfig{Dir: dir})}, jobs)
	if err != nil {
		t.Fatal(err)
	}

	var entries []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".entry" {
			entries = append(entries, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(jobs) {
		t.Fatalf("%d disk entries for %d jobs", len(entries), len(jobs))
	}
	// Truncate one entry and bit-flip another; leave the rest intact.
	if err := os.Truncate(entries[0], 10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entries[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(entries[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh process (fresh JobCache, same directory) re-runs the suite.
	jc := NewJobCache(CacheConfig{Dir: dir})
	warm, err := Collect(context.Background(), &Local{Workers: 2, Cache: jc}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	stats := jc.Stats()
	if stats.CorruptEntries != 2 {
		t.Errorf("CorruptEntries = %d, want 2", stats.CorruptEntries)
	}
	if stats.Misses != 2 {
		t.Errorf("Misses = %d, want the 2 corrupted jobs re-executed", stats.Misses)
	}
	if want := int64(len(jobs) - 2); stats.Hits != want {
		t.Errorf("Hits = %d, want %d intact entries served", stats.Hits, want)
	}
	if stats.Stores != 2 {
		t.Errorf("Stores = %d, want the 2 re-executed results re-written", stats.Stores)
	}
	a, b := normalizeResults(cold), normalizeResults(warm)
	for i := range a {
		a[i].Cached, b[i].Cached = false, false
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results diverged after corruption recovery:\ncold: %+v\nwarm: %+v", a, b)
	}
}

// TestNoResultsDisablesCaching checks -no-cache semantics: even with a
// store directory configured, every job executes every time, nothing is
// stored or marked Cached, and analysis memoization still prevents per-job
// re-analysis.
func TestNoResultsDisablesCaching(t *testing.T) {
	jobs, _ := huntBatch(t, "dillo", 7)
	jobs = jobs[:3]
	jc := NewJobCache(CacheConfig{Dir: t.TempDir(), NoResults: true})
	backend := &Local{Workers: 2, Cache: jc}
	for round := 1; round <= 2; round++ {
		results, err := Collect(context.Background(), backend, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Cached {
				t.Errorf("round %d: job %d marked Cached under NoResults", round, r.JobID)
			}
		}
		stats := jc.Stats()
		if want := int64(round * len(jobs)); stats.Misses != want {
			t.Errorf("round %d: Misses = %d, want %d", round, stats.Misses, want)
		}
		if stats.Hits != 0 || stats.Stores != 0 {
			t.Errorf("round %d: Hits = %d, Stores = %d, want 0", round, stats.Hits, stats.Stores)
		}
		if stats.AnalysisRuns != 1 {
			t.Errorf("round %d: AnalysisRuns = %d, want 1 (memoized)", round, stats.AnalysisRuns)
		}
	}
}

// TestErrorResultsNotCached checks that failure Results never poison the
// cache: a job naming a missing site re-executes on every attempt and is
// never marked Cached.
func TestErrorResultsNotCached(t *testing.T) {
	job := Job{ID: 0, Kind: KindHunt, App: "dillo", Site: "no/such/site@1", Seed: 1}
	jc := NewJobCache(CacheConfig{Dir: t.TempDir()})
	for round := 1; round <= 2; round++ {
		res, err := Execute(context.Background(), job, jc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == "" {
			t.Fatal("expected a missing-site error result")
		}
		if res.Cached {
			t.Errorf("round %d: error result marked Cached", round)
		}
		stats := jc.Stats()
		if want := int64(round); stats.Misses != want {
			t.Errorf("round %d: Misses = %d, want %d (error results re-execute)", round, stats.Misses, want)
		}
		if stats.Hits != 0 || stats.Stores != 0 {
			t.Errorf("round %d: error result cached: %+v", round, stats)
		}
	}
}

// TestExecWarmSharedDir checks the cross-process cache: two Exec runs over a
// shared -cache-dir produce identical results, and the second run's worker
// processes serve every job from disk (all hits, zero misses, cache-hit
// events synthesized in the parent).
func TestExecWarmSharedDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	jobs, _ := huntBatch(t, "dillo", 7)

	cold := testExec(2, nil)
	cold.CacheDir = dir
	coldRes, err := Collect(context.Background(), cold, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.CacheStats()
	if cs.Misses != int64(len(jobs)) || cs.Stores != int64(len(jobs)) {
		t.Fatalf("cold exec stats %+v, want %d misses and stores", cs, len(jobs))
	}

	warmLog := newEventLog()
	warm := testExec(2, warmLog.sink())
	warm.CacheDir = dir
	warmRes, err := Collect(context.Background(), warm, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.CacheStats()
	if ws.Misses != 0 {
		t.Errorf("warm exec executed %d jobs, want 0", ws.Misses)
	}
	if ws.Hits != int64(len(jobs)) {
		t.Errorf("warm exec hits = %d, want %d", ws.Hits, len(jobs))
	}
	if got := warmLog.count(EventCacheHit); got != len(jobs) {
		t.Errorf("parent saw %d cache-hit events, want %d", got, len(jobs))
	}
	if got := warmLog.count(EventFinished); got != 0 {
		t.Errorf("parent saw %d finished events on a fully-cached run, want 0", got)
	}
	a, b := normalizeResults(coldRes), normalizeResults(warmRes)
	for i := range b {
		if !b[i].Cached {
			t.Errorf("warm exec result %d not marked Cached", b[i].JobID)
		}
		b[i].Cached = false
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("warm exec diverged from cold:\ncold: %+v\nwarm: %+v", a, b)
	}
}

// TestExecNoCacheStoresNothing checks that the Exec backend's NoCache
// reaches its worker processes: with a CacheDir set as well, a batch
// executes every job and leaves the store empty. A worker that ignored
// -no-cache would store each result.
func TestExecNoCacheStoresNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	jobs, _ := huntBatch(t, "vlc", 7)
	e := testExec(2, nil)
	e.CacheDir, e.NoCache = dir, true
	if _, err := Collect(context.Background(), e, jobs); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Misses != int64(len(jobs)) || cs.Hits != 0 || cs.Stores != 0 {
		t.Errorf("exec stats %+v, want %d misses and no hits or stores", cs, len(jobs))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("store holds %d entries after a -no-cache run, want 0", len(entries))
	}
}
