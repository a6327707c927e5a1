package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/solver"
)

// jobRef names one job of a sweep across waves (job IDs restart per wave).
type jobRef struct {
	kind      dispatch.Kind
	app, site string
	enforced  int
}

func refOf(j dispatch.Job) jobRef {
	return jobRef{kind: j.Kind, app: j.App, site: j.Site, enforced: len(j.Enforced)}
}

// jobSpan is one job's execution interval as the Sink saw it, relative to
// the pass start. Cache hits have no started event and get no span.
type jobSpan struct {
	kind       dispatch.Kind
	start, end time.Duration
}

// collector is the Sink every pass installs. It always keeps the input of
// each exposed hunt (the harness folds arith outcomes without inputs, and
// the oracles replay them); traced passes also keep job spans, solver
// counters, the job records and their results.
type collector struct {
	traced bool
	t0     time.Time

	mu      sync.Mutex
	inputs  map[jobRef][]byte
	started map[jobRef]time.Duration
	spans   []jobSpan
	stats   solver.Stats
	runs    int
	enf     int
	jobs    []dispatch.Job
	results []dispatch.Result
}

func newCollector(traced bool) *collector {
	return &collector{traced: traced, inputs: map[jobRef][]byte{}, started: map[jobRef]time.Duration{}}
}

func (c *collector) sink(ev dispatch.Event) {
	if ev.Type == dispatch.EventIteration {
		return
	}
	now := time.Since(c.t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := refOf(ev.Job)
	if ev.Type == dispatch.EventStarted {
		if c.traced {
			c.started[ref] = now
		}
		return
	}
	r := ev.Result
	if r.Kind == dispatch.KindHunt && r.Verdict == core.VerdictExposed.String() {
		c.inputs[ref] = append([]byte(nil), r.Input...)
	}
	if !c.traced {
		return
	}
	c.jobs = append(c.jobs, ev.Job)
	c.results = append(c.results, *r)
	if ev.Type == dispatch.EventFinished {
		c.spans = append(c.spans, jobSpan{kind: ev.Job.Kind, start: c.started[ref], end: now})
		c.stats.Add(r.Stats)
		c.runs += r.Runs
		c.enf += len(r.Enforced)
	}
}

// pass is one timed sweep and what it produced.
type pass struct {
	wall, cpu time.Duration
	outcomes  []harness.AppOutcome
	cache     cache.Stats
	col       *collector
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
	// peakMB is the peak resident memory of the process during the pass.
	peakMB float64
	// profile and samples are the CPU profile of a traced pass.
	profile []byte
	samples []cpuSample
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// resident size, so peakRSSMB then reads the peak since the reset. Where that
// is not possible peakRSSMB reads the process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: fallback above
}

// peakRSSMB is the process's peak resident set in MB: VmHWM from
// /proc/self/status, or getrusage's lifetime peak where that is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}

// runPass sweeps the environment once through harness.EvaluateContext on a
// 2-worker dispatch.Local with the given JobCache. The heap is collected
// first, so one pass's garbage is not collected inside the next. A traced
// collector also makes the pass record a CPU profile of just the sweep.
func runPass(ctx context.Context, e *env, jc *dispatch.JobCache, col *collector) (*pass, error) {
	if col == nil {
		col = newCollector(false)
	}
	cfg := e.w.config()
	cfg.Workers, cfg.Parallelism = 2, 1
	cfg.Cache, cfg.Sink = jc, col.sink
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	var prof *profiler
	if col.traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuTime()
	col.t0 = time.Now()
	out := harness.EvaluateContext(ctx, cfg, e.list)
	wall := time.Since(col.t0)
	cpu := cpuTime() - cpu0
	p := &pass{wall: wall, cpu: cpu, outcomes: out, cache: jc.Stats(), col: col, peakMB: peakRSSMB()}
	if prof != nil {
		var err error
		if p.samples, err = prof.stop(); err != nil {
			return nil, err
		}
		p.profile = prof.raw
	}
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p, nil
}

// counts are a pass's deterministic outcome tallies.
type counts struct {
	jobs, failedJobs int
	hunts, decided   int
	exposed          int
	hits, total      int
}

func (p *pass) counts() counts {
	c := counts{jobs: int(p.cache.Hits + p.cache.Misses)}
	decided := func(v core.Verdict) bool {
		return v == core.VerdictExposed || v == core.VerdictUnsat || v == core.VerdictPrevented
	}
	for _, o := range p.outcomes {
		if o.Result != nil {
			for _, sr := range o.Result.Sites {
				c.hunts++
				if decided(sr.Verdict) {
					c.decided++
				}
				if sr.Verdict == core.VerdictExposed {
					c.exposed++
				}
			}
		}
		if o.Record != nil {
			for _, s := range o.Record.Sites {
				c.hits += s.TargetOnly.Hits + s.TargetEnforced.Hits
				c.total += s.TargetOnly.Total + s.TargetEnforced.Total
			}
		}
		for _, as := range o.Arith {
			if as.Pruned {
				continue
			}
			c.hunts++
			if as.Err != "" {
				c.failedJobs++
				continue
			}
			if decided(as.Verdict) {
				c.decided++
			}
			if as.Verdict == core.VerdictExposed {
				c.exposed++
			}
		}
	}
	return c
}

// digest hashes every per-site verdict, input and rate of a pass — nothing
// clock-derived — in application-name order, so identical outcomes give
// identical digests whatever order the sweep listed the applications in.
func (p *pass) digest() string {
	lines := make([]string, 0, len(p.outcomes))
	for _, o := range p.outcomes {
		var b strings.Builder
		fmt.Fprintf(&b, "app %s err=%v\n", o.App.Short, o.Err)
		if o.Result != nil {
			for i, sr := range o.Result.Sites {
				rec := o.Record.Sites[i]
				fmt.Fprintf(&b, "%s %s %s %v %d %s %s %s %s\n", sr.Target.Site, sr.Verdict, sr.ErrorType,
					sr.Enforced, sr.Runs, hex.EncodeToString(sr.Input), rec.SamePathSat, rec.TargetOnly, rec.TargetEnforced)
			}
		}
		for _, as := range o.Arith {
			in := p.col.inputs[jobRef{kind: dispatch.KindHunt, app: o.App.Short, site: as.Site.Name}]
			fmt.Fprintf(&b, "arith %s %s %s %v %q %s\n", as.Site.Name, as.Verdict, as.ErrorType, as.Pruned, as.Err, hex.EncodeToString(in))
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(sum[:])[:16]
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (mean of the middle two for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
