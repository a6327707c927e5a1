package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"diode/internal/core"
)

// benchmarkFile mirrors the keys of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON pins the benchmark's metric record to
// BENCHMARK.json: same workloads, same metrics in the same order with the
// same units, directions and bounds, names and units within the naming
// rule, and a predicted effect for every per-layer metric.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, metrics.json %d, benchmark %d", len(b.Workloads), len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, metrics.json %q, benchmark %q", i, b.Workloads[i].Name, spec.Workloads[i].Name, w.name)
		}
		if why := b.Workloads[i].Why; why != spec.Workloads[i].Why || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, equal in both files", w.name)
		}
	}
	compare := func(kind string, got, want []metricSpec, withBound bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.json %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (withBound && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %+v", kind, i, g, w)
			}
			if !nameRule.MatchString(g.Name) || !unitRule.MatchString(g.Unit) {
				t.Errorf("%s: %q [%s] breaks the naming rule", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, g.Name, g.Better)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, spec.EndToEnd, true)
	compare("per_layer", b.PerLayer, spec.PerLayer, false)

	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound")
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, m := range spec.PerLayer {
		if m.Moves == "" || m.Layer == "" || len(m.On) == 0 {
			t.Errorf("per-layer %s does not say which layer it measures and what it should move where", m.Name)
		}
		for _, w := range m.On {
			if !known[w] {
				t.Errorf("per-layer %s names unknown workload %q", m.Name, w)
			}
		}
	}
	for i, w := range workloads {
		swept := map[string]bool{}
		for _, a := range w.apps() {
			swept[a.Short] = true
		}
		for _, x := range spec.Workloads[i].Excluded {
			if swept[x.App] || x.Reason == "" {
				t.Errorf("%s: excluded app %s is swept or has no reason", w.name, x.App)
			}
		}
	}
	if n := len(spec.Workloads[1].Excluded); spec.Workloads[1].Name != "arith-surface" || n != 3 {
		t.Errorf("arith-surface must record its 3 excluded apps, has %d", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d / paths %v out of contract", b.RunSeconds, b.Paths)
	}
}

// TestRenderPrintsEveryMetricWithUnit checks the output format: one line
// per metric with its unit, and a last line of JSON carrying value and unit.
func TestRenderPrintsEveryMetricWithUnit(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		res := &result{correct: true, attempted: 3, metrics: map[string]float64{}}
		for i, m := range list {
			res.metrics[m.Name] = 1.25 + float64(i)
		}
		out, err := res.render(list)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(out, "\n")
		for i, m := range list {
			f := strings.Fields(lines[i])
			if len(f) != 4 || f[0] != "metric" || f[1] != m.Name || f[3] != m.Unit {
				t.Errorf("line %q does not print %s with unit %s", lines[i], m.Name, m.Unit)
			}
		}
		var js struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
			t.Fatal(err)
		}
		if !js.Correct || js.Attempted != 3 || len(js.Metrics) != len(list) {
			t.Errorf("JSON line %+v", js)
		}
		for i, m := range list {
			if got := js.Metrics[m.Name]; got.Unit != m.Unit || got.Value != 1.25+float64(i) {
				t.Errorf("JSON %s = %+v", m.Name, got)
			}
		}
		delete(res.metrics, list[0].Name)
		if _, err := res.render(list); err == nil {
			t.Errorf("a missing metric must fail the run")
		}
	}
}

// TestWorkloadOracles runs one set-up and two passes of every workload,
// checks that the oracles accept them, that exposures replay on the
// tree-walker, that both passes digest equal — and that the oracle rejects a
// pass with one flipped verdict.
func TestWorkloadOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every workload")
	}
	dir := t.TempDir()
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, st, err := w.setUp(ctx, 3, dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.total <= 0 || st.sites == 0 || (w.probes && st.probe <= 0) || (w.warm && st.fill <= 0) {
				t.Errorf("set-up times %+v", st)
			}
			a, err := runPass(ctx, e, e.newCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPass(ctx, e, e.newCache(), newCollector(true))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*pass{a, b} {
				if err := w.sweepOracle(e, p); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := replayExposures(a); err != nil || n == 0 {
				t.Fatalf("replayed %d exposures: %v", n, err)
			}
			if a.digest() != b.digest() {
				t.Errorf("digests differ: %s vs %s", a.digest(), b.digest())
			}
			if len(b.col.jobs) == 0 || (!w.warm && len(b.col.spans) == 0) {
				t.Errorf("traced pass recorded %d jobs, %d spans", len(b.col.jobs), len(b.col.spans))
			}
			// Flip one alloc site's verdict: the oracle must notice.
			for _, o := range b.outcomes {
				for _, sr := range o.Result.Sites {
					if _, ok := o.App.PaperFor(sr.Target.Site); ok && sr.Verdict == core.VerdictUnsat {
						sr.Verdict = core.VerdictExposed
						if err := w.sweepOracle(e, b); err == nil {
							t.Errorf("oracle accepted %s flipped to exposed", sr.Target.Site)
						}
						return
					}
				}
			}
			t.Errorf("no curated unsat site to flip")
		})
	}
}

// TestPermuteIsSeeded pins the workload seed's only effect: a seeded order.
func TestPermuteIsSeeded(t *testing.T) {
	order := func(seed int64) string {
		var names []string
		for _, a := range permute(allApps(), seed) {
			names = append(names, a.Short)
		}
		return strings.Join(names, ",")
	}
	if order(1) != order(1) {
		t.Error("same seed, different order")
	}
	if order(1) == order(2) && order(2) == order(3) {
		t.Error("seeds do not change the order")
	}
}

func TestQuantilesAndSpans(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0.8) != 4 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 {
		t.Errorf("median %v p80 %v", median(xs), quantile(xs, 0.8))
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
	ms := time.Millisecond
	spans := []jobSpan{{start: 0, end: 4 * ms}, {start: 2 * ms, end: 6 * ms}, {start: 8 * ms, end: 9 * ms}}
	if got := spanUnion(spans); got != 7*ms {
		t.Errorf("span union %v, want 7ms", got)
	}
}

// TestProfileShares profiles a busy loop and checks the decoder finds
// samples and attributes them.
func TestProfileShares(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatalf("no samples (x=%d)", x)
	}
	known := map[string]bool{"sat": true}
	for fn, want := range map[string]string{
		"diode/internal/sat.(*Solver).propagate": "sat",
		"diode/internal/lang.Walk":               "other",
		"runtime.mallocgc":                       "runtime_malloc",
		"runtime.gcDrain":                        "runtime_gc",
		"runtime.memmove":                        "runtime_other",
		"encoding/json.(*decodeState).object":    "stdlib",
		"main.run":                               "other",
	} {
		if got := cpuCategory(fn, known); got != want {
			t.Errorf("cpuCategory(%s) = %s, want %s", fn, got, want)
		}
	}
}
