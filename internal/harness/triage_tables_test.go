package harness

import (
	"context"
	"testing"

	"diode/internal/apps"
	"diode/internal/dispatch"
	"diode/internal/report"
)

// renderTables runs the full-suite sweep at one seed and renders the three
// curated tables with wall-clock fields zeroed (analysis and discovery
// durations are the only non-deterministic bytes in the output).
func renderTables(t *testing.T, noTriage bool) [3]string {
	t.Helper()
	outcomes := EvaluateContext(context.Background(), Config{Seed: 21, Engine: dispatch.Options{NoTriage: noTriage}}, apps.All())
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	recs := Records(outcomes)
	for _, rec := range recs {
		rec.AnalysisMS = 0
		for i := range rec.Sites {
			rec.Sites[i].DiscoveryMS = 0
		}
	}
	return [3]string{
		report.Table1(apps.Paper(), recs),
		report.Table2(apps.Paper(), recs),
		report.TableExtended(apps.Extended(), recs),
	}
}

// TestTablesByteIdenticalUnderTriage pins the tentpole's no-regression
// guarantee: enabling the static triage must not change a single byte of
// the curated Table 1, Table 2 or extended-suite table at the same seed.
// The triage only short-circuits must-overflow sites (witnessed by a real
// seed execution) and safe arith sites (outside the curated alloc tables);
// safe alloc sites deliberately still hunt, because their curated verdicts
// distinguish unsatisfiable from sanity-prevented.
func TestTablesByteIdenticalUnderTriage(t *testing.T) {
	withTriage := renderTables(t, false)
	withoutTriage := renderTables(t, true)
	names := [3]string{"Table 1", "Table 2", "extended table"}
	for i := range names {
		if withTriage[i] != withoutTriage[i] {
			t.Errorf("%s differs with triage enabled\nwith:\n%s\nwithout:\n%s",
				names[i], withTriage[i], withoutTriage[i])
		}
	}
}
