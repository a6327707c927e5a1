package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"diode/internal/apps"
	"diode/internal/report"
)

// normalize zeroes the wall-clock fields of a record set so two sweeps can
// be compared for semantic equality (times legitimately differ run to run).
func normalize(recs []*report.AppRecord) []*report.AppRecord {
	out := make([]*report.AppRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.AnalysisMS = 0
		c.Sites = append([]report.SiteRecord(nil), r.Sites...)
		for j := range c.Sites {
			c.Sites[j].DiscoveryMS = 0
		}
		out[i] = &c
	}
	return out
}

// TestParallelSweepDeterminism is the end-to-end acceptance test: a fully
// parallel sweep (apps × sites concurrent, experiments included) must
// produce the same Table 1/Table 2 rows as a sequential one for the same
// seed — verdicts, enforced counts, error types and success rates all equal.
func TestParallelSweepDeterminism(t *testing.T) {
	apps2 := []*apps.App{}
	for _, short := range []string{"vlc", "dillo"} {
		a, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		apps2 = append(apps2, a)
	}
	cfg := Config{Seed: 33, SampleN: 10, SamePath: true}
	seqCfg := cfg
	seqCfg.Workers = 1
	parCfg := cfg
	parCfg.Parallelism = runtime.GOMAXPROCS(0)

	seq := normalize(Records(EvaluateContext(context.Background(), seqCfg, apps2)))
	par := normalize(Records(EvaluateContext(context.Background(), parCfg, apps2)))
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if t1s, t1p := report.Table1(apps2, seq), report.Table1(apps2, par); t1s != t1p {
		t.Errorf("Table 1 rows differ:\n%s\nvs\n%s", t1s, t1p)
	}
	if t2s, t2p := report.Table2(apps2, seq), report.Table2(apps2, par); t2s != t2p {
		t.Errorf("Table 2 rows differ:\n%s\nvs\n%s", t2s, t2p)
	}
}
