// Command perfbench is the repository's end-to-end sweep benchmark. One run
// sets up one named workload, sweeps it repeatedly through the public path
// `diode-tables` takes — harness.EvaluateContext on a 2-worker
// dispatch.Local — for a fixed time, checks every pass against correctness
// oracles, and prints each metric with its unit. The last line of standard
// output is one JSON object with the run's verdict and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see metrics.json for why each exists):
//
//	paper-sweep    the full paper evaluation over all 7 apps, result cache off
//	arith-surface  the Config.Arith probe-hunt sweep over 4 apps
//	warm-resweep   paper-sweep's jobs served from a store set-up fills
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// is a separate run that reports the per-layer metrics: set-up split by
// layer, job spans from the Sink, solver/cache/runtime counters, direct
// timings of layer entry points, CPU-profile shares by package, and the
// tracing overhead against untraced passes of the same process. Spans and
// the CPU profile are kept in memory and written under .bench_build/ at the
// end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
// warm-resweep's set-up includes a cold sweep that fills the store, so it
// repeats fewer times.
func setupReps(w *workload) int {
	if w.warm {
		return 3
	}
	return 15
}

// minPasses is the fewest timed passes a run makes, so the determinism check
// always compares passes.
const minPasses = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-sweep, arith-surface or warm-resweep")
	seed := flag.Int64("seed", 1, "workload seed: picks the order the sweep lists the applications in")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1:", err)
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r := &runner{w: w, spec: spec, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := r.run(context.Background())
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir)
		os.RemoveAll(r.spareDir())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	list := spec.EndToEnd
	if r.traced {
		list = spec.PerLayer
	}
	out, err := res.render(list)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(out)
	if !res.correct {
		return 1
	}
	return 0
}

// outDir holds everything a run leaves behind: the benchmark binary, the Go
// build cache, the warm-resweep store, trace spans and CPU profiles.
const outDir = ".bench_build"

// runner carries one run's settings and accumulating state.
type runner struct {
	w        *workload
	spec     *specFile
	seed     int64
	budget   time.Duration
	traced   bool
	storeDir string
}

// spareDir is where throwaway warm-resweep set-ups fill their store.
func (r *runner) spareDir() string {
	if r.storeDir == "" {
		return ""
	}
	return r.storeDir + "-spare"
}

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	problems          []string
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// render prints every listed metric with its unit on its own line, then the
// JSON result line. A listed metric the run did not produce is an error.
func (r *result) render(list []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var lines string
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
		lines += fmt.Sprintf("metric %-36s %14s %s\n", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit)
	}
	for _, p := range r.problems {
		lines += "FAIL " + p + "\n"
	}
	js, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return lines + string(js), err
}

func (r *runner) run(ctx context.Context) (*result, error) {
	steal0 := readCPUStat()
	res := &result{correct: true, metrics: map[string]float64{}}

	// The first set-up builds the environment every pass sweeps.
	if r.w.warm {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, err
		}
		r.storeDir = dir
	}
	reps := setupReps(r.w)
	e, st, err := r.w.setUp(ctx, r.seed, r.storeDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sts := []setupTimes{st}
	// The other set-up repetitions build throwaway environments spread over
	// the measurement, so setup_s samples the same host conditions as the
	// passes do rather than one moment at the start.
	setUpAgain := func() error {
		runtime.GC()
		_, st, err := r.w.setUp(ctx, r.seed, r.spareDir())
		sts = append(sts, st)
		return err
	}

	// One untimed warm-up pass settles process-wide state the first sweep
	// fills (interned solver terms, heap growth); it is checked like the
	// rest and anchors the determinism digest.
	warmup, err := runPass(ctx, e, e.newCache(), nil)
	if err != nil {
		return nil, err
	}
	if err := r.w.sweepOracle(e, warmup); err != nil {
		res.fail("warm-up pass: %v", err)
	}
	replayed, err := replayExposures(warmup)
	if err != nil {
		res.fail("replay: %v", err)
	}
	digest := warmup.digest()

	// Timed passes. A traced run spends the first half untraced, to measure
	// the tracing overhead in the same process. Checked outcomes are dropped,
	// so that earlier passes do not grow the heap later ones run in.
	var passes, tracedPasses []*pass
	identical := true
	start := time.Now()
	for len(passes)+len(tracedPasses) < minPasses || time.Since(start) < r.budget {
		traced := r.traced && time.Since(start) >= r.budget/2 && len(passes) >= 1
		p, err := runPass(ctx, e, e.newCache(), newCollector(traced))
		if err != nil {
			return nil, err
		}
		n := len(passes) + len(tracedPasses) + 1
		err = r.w.sweepOracle(e, p)
		if d := p.digest(); err == nil && d != digest {
			identical = false
			err = fmt.Errorf("digest %s differs from warm-up digest %s", d, digest)
		}
		if err != nil {
			res.fail("pass %d: %v", n, err)
			res.failed++
		}
		p.outcomes = nil
		if len(sts) < reps && time.Since(start) >= time.Duration(len(sts))*r.budget/time.Duration(reps) {
			if err := setUpAgain(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		if traced {
			// Only the last traced pass's job records are read later.
			if k := len(tracedPasses); k > 0 {
				tracedPasses[k-1].col.jobs, tracedPasses[k-1].col.results = nil, nil
			}
			tracedPasses = append(tracedPasses, p)
		} else {
			p.col = nil
			passes = append(passes, p)
		}
	}
	for len(sts) < reps {
		if err := setUpAgain(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res.metrics["setup_s"] = medianOf(sts, func(s setupTimes) float64 { return s.total.Seconds() })
	all := append(append([]*pass(nil), passes...), tracedPasses...)
	c := warmup.counts()
	res.attempted = len(all)

	walls := make([]float64, len(passes))
	cpus := make([]float64, len(passes))
	for i, p := range passes {
		walls[i], cpus[i] = p.wall.Seconds(), p.cpu.Seconds()
	}
	res.metrics["sweep_s"] = median(walls)
	res.metrics["cpu_s"] = median(cpus)
	res.metrics["peak_rss_mb"] = medianOf(passes, func(p *pass) float64 { return p.peakMB })
	res.metrics["exposed"] = float64(c.exposed)
	res.metrics["decided_frac"] = ratio(c.decided, c.hunts)

	fmt.Printf("workload %s seed %d: %d set-ups, %d passes (%d traced) in %.1fs\n",
		r.w.name, r.seed, len(sts), len(all), len(tracedPasses), time.Since(start).Seconds())
	fmt.Printf("digest %s: warm-up and %d passes identical=%v; %d exposed inputs replayed on the tree-walker\n",
		digest, len(all), identical, replayed)
	fmt.Printf("jobs %d per pass, %d failed (%.3f), %d hunts, %d decided, %d exposed, trigger rate %d/%d\n",
		c.jobs, c.failedJobs, ratio(c.failedJobs, c.jobs), c.hunts, c.decided, c.exposed, c.hits, c.total)
	fmt.Println(noiseLine(steal0))
	fmt.Println(distribution("sweep_s", walls))
	fmt.Println(distribution("cpu_s", cpus))
	if err := r.writePasses(all); err != nil {
		return nil, err
	}

	if r.traced {
		if err := r.layerMetrics(ctx, e, res, sts, warmup, passes, tracedPasses); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// distribution summarizes the untraced passes' values of one metric.
func distribution(name string, vals []float64) string {
	return fmt.Sprintf("untraced %s over %d passes: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f", name, len(vals),
		quantile(vals, 0), quantile(vals, 0.25), median(vals), quantile(vals, 0.75), quantile(vals, 1))
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writePasses records every timed pass's wall and CPU time under outDir, so
// the distribution behind a run's medians can be inspected.
func (r *runner) writePasses(ps []*pass) error {
	var b strings.Builder
	b.WriteString("pass\twall_s\tcpu_s\n")
	for i, p := range ps {
		fmt.Fprintf(&b, "%d\t%.6f\t%.6f\n", i, p.wall.Seconds(), p.cpu.Seconds())
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("passes-%s-seed%d.tsv", r.w.name, r.seed)), []byte(b.String()), 0o644)
}
