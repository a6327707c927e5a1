package harness

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/report"
)

// workerModeEnv switches the test binary into diode-worker mode so the Exec
// backend can run hermetically against this very binary (no separate build).
const workerModeEnv = "DIODE_TEST_WORKER_MODE"

func TestMain(m *testing.M) {
	if os.Getenv(workerModeEnv) == "1" {
		if err := dispatch.WorkerMain(context.Background(), os.Args[1:], os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testExecBackend(workers int) *dispatch.Exec {
	return &dispatch.Exec{
		Binary:  os.Args[0],
		Env:     []string{workerModeEnv + "=1"},
		Workers: workers,
	}
}

// TestBackendTableEquality is the tentpole acceptance test: the same sweep —
// hunts, same-path and success-rate experiments over paper and extended
// applications — must render byte-identical Table 1/Table 2/extended tables
// from the sequential Local backend, the saturated Local backend, and the
// multi-process Exec backend at several worker counts.
func TestBackendTableEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	list := []*apps.App{}
	for _, short := range []string{"vlc", "dillo", "gifview"} {
		a, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, a)
	}
	base := Config{Seed: 33, SampleN: 10, SamePath: true}

	seqCfg := base
	seqCfg.Workers = 1
	seqCfg.Parallelism = 1
	want := normalize(Records(EvaluateContext(context.Background(), seqCfg, list)))
	if len(want) != len(list) {
		t.Fatalf("sequential sweep produced %d records, want %d", len(want), len(list))
	}
	wantT1 := report.Table1(list, want)
	wantT2 := report.Table2(list, want)
	wantTE := report.TableExtended(list, want)

	variants := map[string]dispatch.Backend{
		"local-parallel": &dispatch.Local{Workers: runtime.GOMAXPROCS(0)},
		"exec-1":         testExecBackend(1),
		"exec-4":         testExecBackend(4),
	}
	for name, backend := range variants {
		cfg := base
		cfg.Backend = backend
		got := normalize(Records(EvaluateContext(context.Background(), cfg, list)))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s diverged from sequential local:\nseq: %+v\ngot: %+v", name, want, got)
		}
		if g := report.Table1(list, got); g != wantT1 {
			t.Errorf("%s: Table 1 differs:\n%s\nvs\n%s", name, wantT1, g)
		}
		if g := report.Table2(list, got); g != wantT2 {
			t.Errorf("%s: Table 2 differs:\n%s\nvs\n%s", name, wantT2, g)
		}
		if g := report.TableExtended(list, got); g != wantTE {
			t.Errorf("%s: extended table differs:\n%s\nvs\n%s", name, wantTE, g)
		}
	}
}

// TestHarnessMatchesSchedulerCompat anchors the planner/folder to the
// definition of a verdict: for each application, a sequential loop of
// Hunters, each seeded with core.SiteSeed from the harness's derived per-app
// seed, must produce the same verdicts, enforced counts, error types and
// inputs the job-based sweep folds into its records.
func TestHarnessMatchesSchedulerCompat(t *testing.T) {
	const seed = 21
	list := []*apps.App{}
	for _, short := range []string{"vlc", "tifthumb"} {
		a, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, a)
	}
	outcomes := EvaluateContext(context.Background(), Config{Seed: seed}, list)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		opts := core.Options{Seed: core.SiteSeed(seed, o.App.Short)}
		targets, err := core.NewAnalyzer(o.App, opts).AnalyzeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != len(o.Result.Sites) {
			t.Fatalf("%s: %d sites vs %d", o.App.Short, len(o.Result.Sites), len(targets))
		}
		for i, tg := range targets {
			sr := core.NewHunter(o.App, core.Options{Seed: core.SiteSeed(opts.Seed, tg.Site)}).HuntContext(context.Background(), tg)
			got := o.Result.Sites[i]
			if got.Target.Site != sr.Target.Site {
				t.Fatalf("%s: site order diverged: %s vs %s", o.App.Short, got.Target.Site, sr.Target.Site)
			}
			if got.Verdict != sr.Verdict || got.ErrorType != sr.ErrorType ||
				got.EnforcedCount() != sr.EnforcedCount() || string(got.Input) != string(sr.Input) {
				t.Errorf("%s: folded result diverged from the sequential hunt: %+v vs %+v",
					sr.Target.Site, got, sr)
			}
		}
	}
}

// TestEvaluateCancellation checks the sweep-level cancellation contract: a
// context cancelled mid-sweep makes EvaluateContext return promptly with
// partial outcomes instead of running the remaining jobs.
func TestEvaluateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1024)
	cfg := Config{
		Seed: 1,
		Sink: func(ev dispatch.Event) {
			if ev.Type == dispatch.EventStarted {
				select {
				case started <- struct{}{}:
				default:
				}
			}
		},
	}
	done := make(chan []AppOutcome, 1)
	go func() { done <- EvaluateContext(ctx, cfg, apps.All()) }()
	<-started // at least one hunt is in flight
	cancel()
	select {
	case outcomes := <-done:
		if len(outcomes) != len(apps.All()) {
			t.Fatalf("%d outcomes, want one per app", len(outcomes))
		}
		var unknown int
		for _, o := range outcomes {
			if o.Err != nil || o.Result == nil {
				continue // analysis itself was cancelled for this app
			}
			for _, sr := range o.Result.Sites {
				if sr.Verdict == core.VerdictUnknown {
					unknown++
				}
			}
		}
		if unknown == 0 {
			t.Error("cancellation left no unfinished sites — sweep was not cut short")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EvaluateContext did not return after cancellation")
	}
}
