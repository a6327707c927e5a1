package dispatch

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"diode/internal/apps"
	"diode/internal/core"
)

// huntBatch plans one hunt job per target site of the application, seeded
// per site from seed.
func huntBatch(t *testing.T, short string, seed int64) ([]Job, []*core.Target) {
	t.Helper()
	app, err := apps.ByName(short)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := core.NewAnalyzer(app, core.Options{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, len(targets))
	for i, tg := range targets {
		jobs[i] = SiteJob(KindHunt, short, tg.Info, seed, Options{})
		jobs[i].ID = i
	}
	return jobs, targets
}

// TestLocalMatchesScheduler is the anchor to the definition of a verdict:
// the Local backend must reproduce a sequential loop of Hunters, each seeded
// with Options.ForSite, byte for byte — verdicts, enforced labels,
// triggering inputs and run counts.
func TestLocalMatchesScheduler(t *testing.T) {
	const seed = 21
	jobs, targets := huntBatch(t, "dillo", seed)
	results, err := Collect(context.Background(), &Local{Workers: runtime.GOMAXPROCS(0)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	app, _ := apps.ByName("dillo")
	opts := core.Options{Seed: seed}
	byID := make(map[int]Result, len(results))
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", r.JobID, r.Err)
		}
		byID[r.JobID] = r
	}
	for i, tg := range targets {
		sr := core.NewHunter(app, opts.ForSite(tg.Site)).Hunt(tg)
		got := byID[i]
		if got.Site != tg.Site {
			t.Fatalf("job %d is %s, sequential hunt of %s", i, got.Site, tg.Site)
		}
		if got.Verdict != sr.Verdict.String() {
			t.Errorf("%s: verdict %s, sequential hunt got %s", got.Site, got.Verdict, sr.Verdict)
		}
		if got.ErrorType != sr.ErrorType {
			t.Errorf("%s: error type %q vs %q", got.Site, got.ErrorType, sr.ErrorType)
		}
		if len(got.Enforced) != len(sr.Enforced) {
			t.Errorf("%s: %d enforced vs %d", got.Site, len(got.Enforced), len(sr.Enforced))
		}
		if string(got.Input) != string(sr.Input) {
			t.Errorf("%s: triggering inputs differ", got.Site)
		}
		if got.Runs != sr.Runs {
			t.Errorf("%s: %d runs vs %d", got.Site, got.Runs, sr.Runs)
		}
	}
}

// TestLocalSinkEvents checks the progress contract: every job emits exactly
// one started and one finished event, and hunts that enforced branches
// emitted iteration events in between.
func TestLocalSinkEvents(t *testing.T) {
	jobs, _ := huntBatch(t, "vlc", 5)
	var started, finished, iterations atomic.Int64
	sink := func(ev Event) {
		switch ev.Type {
		case EventStarted:
			started.Add(1)
		case EventFinished:
			finished.Add(1)
			if ev.Result == nil || ev.Result.Site != ev.Job.Site {
				t.Errorf("finished event without a matching result: %+v", ev)
			}
		case EventIteration:
			iterations.Add(1)
		}
	}
	results, err := Collect(context.Background(), &Local{Workers: 2, Sink: sink}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if int(started.Load()) != len(jobs) || int(finished.Load()) != len(jobs) {
		t.Fatalf("started/finished = %d/%d, want %d/%d",
			started.Load(), finished.Load(), len(jobs), len(jobs))
	}
	var enforced int
	for _, r := range results {
		enforced += len(r.Enforced)
	}
	if enforced > 0 && iterations.Load() == 0 {
		t.Fatalf("hunts enforced %d branches but no iteration events fired", enforced)
	}
}

// TestLocalCancellation is the cancellation acceptance test: cancelling a
// mid-sweep context must close the result stream promptly with partial
// results and leak no goroutines.
func TestLocalCancellation(t *testing.T) {
	// A large batch over every registered application (several hundred runs'
	// worth of work) so cancellation lands mid-sweep.
	var jobs []Job
	for _, app := range apps.All() {
		for rep := 0; rep < 4; rep++ {
			b, _ := huntBatch(t, app.Short, int64(rep))
			for _, j := range b {
				j.ID = len(jobs)
				jobs = append(jobs, j)
			}
		}
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := (&Local{Workers: 4}).Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var partial int
	for r := range ch {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", r.JobID, r.Err)
		}
		partial++
		if partial == 3 {
			cancel()
			break
		}
	}
	// The stream must drain and close promptly after the cancellation.
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-ch:
			if !ok {
				open = false
			} else {
				partial++
			}
		case <-deadline:
			t.Fatal("result stream did not close after cancellation")
		}
	}
	if partial >= len(jobs) {
		t.Fatalf("cancellation did not truncate the sweep: %d/%d results", partial, len(jobs))
	}

	// No goroutine leaks: the pool must wind down completely.
	for i := 0; ; i++ {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if i >= 100 {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
}

// TestLocalJobErrors checks that bad jobs degrade to per-job error results
// without disturbing their batch mates.
func TestLocalJobErrors(t *testing.T) {
	jobs := []Job{
		{ID: 0, Kind: KindHunt, App: "no-such-app", Site: "x"},
		{ID: 1, Kind: "bogus", App: "dillo", Site: "dillo:png.c@203"},
		{ID: 2, Kind: KindHunt, App: "dillo", Site: "dillo:no-such-site"},
		{ID: 3, Kind: KindHunt, App: "dillo", Site: "dillo:png.c@203", Seed: core.SiteSeed(1, "dillo:png.c@203")},
	}
	results, err := Collect(context.Background(), &Local{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for _, r := range results {
		if r.JobID == 3 {
			if r.Err != "" || r.Verdict != core.VerdictExposed.String() {
				t.Errorf("good job contaminated: err=%q verdict=%q", r.Err, r.Verdict)
			}
		} else if r.Err == "" {
			t.Errorf("job %d should have failed", r.JobID)
		}
	}
}
