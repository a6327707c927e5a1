package diode

import (
	"context"
	"reflect"
	"testing"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
)

// recordingBackend captures the first batch it is handed and executes
// nothing: the sweep then folds no results, which is all a planning test
// needs.
type recordingBackend struct{ jobs []dispatch.Job }

func (r *recordingBackend) Run(_ context.Context, jobs []dispatch.Job) (<-chan dispatch.Result, error) {
	if r.jobs == nil {
		r.jobs = append([]dispatch.Job(nil), jobs...)
	}
	out := make(chan dispatch.Result)
	close(out)
	return out, nil
}

// TestHuntJobsMatchHarnessJobs pins that every planner cuts the same job for
// the same site: dispatch.HuntJobs (cmd/diode, the examples) and the harness's
// wave-1 hunt jobs (diode-tables) must agree record for record — and hence
// share JobKeys and job-cache entries — when given one application and the
// same run seed under the default settings.
func TestHuntJobsMatchHarnessJobs(t *testing.T) {
	const seed = 5
	app, err := apps.ByName("vlc")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBackend{}
	out := harness.EvaluateContext(context.Background(), harness.Config{Seed: seed, Backend: rec}, []*apps.App{app})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	targets, err := core.NewAnalyzer(app, core.Options{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jobs := dispatch.HuntJobs(app.Short, targets, seed, dispatch.Options{})
	if len(jobs) == 0 || len(jobs) != len(rec.jobs) {
		t.Fatalf("HuntJobs planned %d jobs, the harness %d", len(jobs), len(rec.jobs))
	}
	fp := app.Fingerprint()
	for i, j := range jobs {
		h := rec.jobs[i]
		if !reflect.DeepEqual(j, h) {
			t.Errorf("job %d: HuntJobs %+v, harness %+v", i, j, h)
		}
		if j.SiteKind == "" || j.SitePath == "" {
			t.Errorf("%s: job carries no structured site identity: %+v", j.Site, j)
		}
		if a, b := dispatch.JobKey(fp, j), dispatch.JobKey(fp, h); a != b {
			t.Errorf("%s: JobKey %s from HuntJobs, %s from the harness", j.Site, a, b)
		}
	}
}
