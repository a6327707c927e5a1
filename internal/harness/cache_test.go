package harness

import (
	"context"
	"reflect"
	"testing"

	"diode/internal/apps"
	"diode/internal/dispatch"
	"diode/internal/report"
)

// TestWarmSweepLocal is the caching acceptance test on the in-process
// backend: a warm sweep over the paper suite at a fixed seed — sharing the
// cold run's JobCache and its disk store — performs zero Analyzer runs and
// zero hunts (asserted via the cache counters) and renders byte-identical
// tables.
func TestWarmSweepLocal(t *testing.T) {
	list := apps.Paper()
	jc := dispatch.NewJobCache(dispatch.CacheConfig{Dir: t.TempDir()})
	cfg := Config{Seed: 33, SampleN: 10, SamePath: true, Cache: jc}

	cold := normalize(Records(EvaluateContext(context.Background(), cfg, list)))
	if len(cold) != len(list) {
		t.Fatalf("cold sweep produced %d records, want %d", len(cold), len(list))
	}
	coldStats := jc.Stats()
	if coldStats.Misses == 0 || coldStats.AnalysisRuns != int64(len(list)) {
		t.Fatalf("cold stats %+v, want executions and one analysis per app", coldStats)
	}

	warm := normalize(Records(EvaluateContext(context.Background(), cfg, list)))
	warmStats := jc.Stats()
	if got := warmStats.Misses - coldStats.Misses; got != 0 {
		t.Errorf("warm sweep executed %d hunts, want 0", got)
	}
	if got := warmStats.AnalysisRuns - coldStats.AnalysisRuns; got != 0 {
		t.Errorf("warm sweep ran the Analyzer %d times, want 0", got)
	}
	if warmStats.Hits <= coldStats.Hits {
		t.Errorf("warm sweep recorded no cache hits: %+v", warmStats)
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm records diverged from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	type render struct {
		name string
		fn   func([]*apps.App, []*report.AppRecord) string
	}
	for _, r := range []render{
		{"Table 1", report.Table1},
		{"Table 2", report.Table2},
		{"extended table", report.TableExtended},
	} {
		if a, b := r.fn(list, cold), r.fn(list, warm); a != b {
			t.Errorf("warm %s differs from cold:\n%s\nvs\n%s", r.name, a, b)
		}
	}
}

// TestWarmSweepExec is the cross-process caching acceptance test: two
// sweeps on fresh Exec backends sharing an on-disk cache directory —
// at different worker counts — render byte-identical tables, and the warm
// run's worker processes perform zero Analyzer runs and zero hunts.
func TestWarmSweepExec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	list := apps.Paper()
	dir := t.TempDir()
	// The planner's analyses live in the parent; sharing its JobCache across
	// both phases keeps the warm planner from re-analyzing, while the shared
	// directory is what carries results between the (fresh) worker processes.
	jc := dispatch.NewJobCache(dispatch.CacheConfig{})
	base := Config{Seed: 33, SampleN: 10, SamePath: true, Cache: jc}

	coldExec := testExecBackend(2)
	coldExec.CacheDir = dir
	coldCfg := base
	coldCfg.Backend = coldExec
	cold := normalize(Records(EvaluateContext(context.Background(), coldCfg, list)))
	if len(cold) != len(list) {
		t.Fatalf("cold sweep produced %d records, want %d", len(cold), len(list))
	}
	coldStats := coldExec.CacheStats()
	if coldStats.Misses == 0 || coldStats.Stores != coldStats.Misses {
		t.Fatalf("cold exec stats %+v, want every executed job stored", coldStats)
	}
	plannerRuns := jc.Stats().AnalysisRuns

	warmExec := testExecBackend(4)
	warmExec.CacheDir = dir
	warmCfg := base
	warmCfg.Backend = warmExec
	warm := normalize(Records(EvaluateContext(context.Background(), warmCfg, list)))
	warmStats := warmExec.CacheStats()
	if warmStats.Misses != 0 {
		t.Errorf("warm workers executed %d hunts, want 0", warmStats.Misses)
	}
	if warmStats.AnalysisRuns != 0 {
		t.Errorf("warm workers ran the Analyzer %d times, want 0", warmStats.AnalysisRuns)
	}
	if warmStats.Hits != coldStats.Misses {
		t.Errorf("warm workers served %d jobs from the shared dir, want %d", warmStats.Hits, coldStats.Misses)
	}
	if got := jc.Stats().AnalysisRuns; got != plannerRuns {
		t.Errorf("warm planner re-analyzed (%d runs, had %d)", got, plannerRuns)
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm records diverged from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if a, b := report.Table1(list, cold), report.Table1(list, warm); a != b {
		t.Errorf("warm Table 1 differs from cold:\n%s\nvs\n%s", a, b)
	}
	if a, b := report.Table2(list, cold), report.Table2(list, warm); a != b {
		t.Errorf("warm Table 2 differs from cold:\n%s\nvs\n%s", a, b)
	}
}
