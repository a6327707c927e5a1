package dispatch

import (
	"context"
	"os"
	"reflect"
	"sort"
	"testing"
)

// workerModeEnv switches the test binary into diode-worker mode, so the Exec
// backend can be exercised hermetically: Exec spawns this very binary with
// the variable set, and TestMain routes the process into WorkerMain, with
// the worker flags Exec passed, before the test framework starts.
const workerModeEnv = "DIODE_TEST_WORKER_MODE"

func TestMain(m *testing.M) {
	if os.Getenv(workerModeEnv) == "1" {
		if err := WorkerMain(context.Background(), os.Args[1:], os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testExec returns an Exec backend that spawns this test binary in worker
// mode.
func testExec(workers int, sink Sink) *Exec {
	return &Exec{
		Binary:  os.Args[0],
		Env:     []string{workerModeEnv + "=1"},
		Workers: workers,
		Sink:    sink,
	}
}

// normalizeResults strips wall-clock fields and orders by job for
// backend-vs-backend comparison.
func normalizeResults(results []Result) []Result {
	out := append([]Result(nil), results...)
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	for i := range out {
		out[i].DiscoveryMS = 0
	}
	return out
}

// TestExecMatchesLocal is the backend-equality acceptance test at the
// dispatch layer: the same batch — hunts plus both experiment kinds — must
// produce deeply equal results from the in-process pool and from sharded
// worker processes, at several process counts.
func TestExecMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const seed = 33
	jobs, _ := huntBatch(t, "vlc", seed)
	localRes, err := Collect(context.Background(), &Local{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Extend the batch with experiment jobs planned from the local hunts,
	// exercising the enforced-label round trip through the wire format.
	next := len(jobs)
	for _, r := range normalizeResults(localRes) {
		if r.Verdict != "exposed" {
			continue
		}
		site := jobs[r.JobID].Site
		jobs = append(jobs,
			Job{ID: next, Kind: KindSamePath, App: "vlc", Site: site, Seed: jobs[r.JobID].Seed},
			Job{ID: next + 1, Kind: KindSuccessRate, App: "vlc", Site: site,
				Seed: jobs[r.JobID].Seed, SampleN: 10, Enforced: r.Enforced},
		)
		next += 2
	}

	want, err := Collect(context.Background(), &Local{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Collect(context.Background(), testExec(workers, nil), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := normalizeResults(want), normalizeResults(got); !reflect.DeepEqual(a, b) {
			t.Fatalf("exec(%d workers) diverged from local:\nlocal: %+v\nexec:  %+v", workers, a, b)
		}
	}
}

// TestExecForwardsEvents checks that worker-process progress events cross
// the pipe and reach the parent's sink with the original Job attached.
func TestExecForwardsEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	jobs, _ := huntBatch(t, "dillo", 1)
	jobs = jobs[:3]
	type seen struct{ started, iterations int }
	events := make(map[string]*seen)
	for _, j := range jobs {
		events[j.Site] = &seen{}
	}
	// One worker process → events arrive sequentially; no locking needed.
	sink := func(ev Event) {
		s, ok := events[ev.Job.Site]
		if !ok {
			t.Errorf("event for unknown job: %+v", ev)
			return
		}
		switch ev.Type {
		case EventStarted:
			s.started++
		case EventIteration:
			s.iterations++
		}
	}
	if _, err := Collect(context.Background(), testExec(1, sink), jobs); err != nil {
		t.Fatal(err)
	}
	for site, s := range events {
		if s.started != 1 {
			t.Errorf("%s: %d started events, want 1", site, s.started)
		}
	}
}

// TestExecWorkerLoss checks the degraded path: a worker binary that dies
// immediately must surface per-job error results, not hang or drop jobs.
func TestExecWorkerLoss(t *testing.T) {
	jobs, _ := huntBatch(t, "dillo", 1)
	jobs = jobs[:2]
	e := &Exec{Binary: "/bin/false", Workers: 2}
	results, err := Collect(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for _, r := range results {
		if r.Err == "" {
			t.Errorf("job %d: expected a worker-loss error", r.JobID)
		}
	}
}

// TestExecMissingBinary checks the setup-error path of Backend.Run.
func TestExecMissingBinary(t *testing.T) {
	e := &Exec{Binary: "/no/such/diode-worker"}
	jobs, _ := huntBatch(t, "dillo", 1)
	results, err := Collect(context.Background(), e, jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err == "" {
			t.Errorf("job %d: expected a spawn error", r.JobID)
		}
	}
}
