package diode

import (
	"context"
	"reflect"
	"testing"

	"diode/internal/dispatch"
	"diode/internal/harness"
)

// recordingBackend captures the first batch it is handed and executes
// nothing: the sweep then folds no results, which is all a planning test
// needs.
type recordingBackend struct{ jobs []Job }

func (r *recordingBackend) Run(_ context.Context, jobs []Job) (<-chan JobResult, error) {
	if r.jobs == nil {
		r.jobs = append([]Job(nil), jobs...)
	}
	out := make(chan JobResult)
	close(out)
	return out, nil
}

// TestHuntJobsMatchHarnessJobs pins that every planner cuts the same job for
// the same site: HuntJobsFor (cmd/diode, the examples) and the harness's
// wave-1 hunt jobs (diode-tables) must agree record for record — and hence
// share JobKeys and job-cache entries — when given one application, the
// harness's per-application base seed and the same settings.
func TestHuntJobsMatchHarnessJobs(t *testing.T) {
	const seed = 5
	app, err := Application("vlc")
	if err != nil {
		t.Fatal(err)
	}
	settings := JobOptions{MaxEnforce: 40}
	rec := &recordingBackend{}
	out := harness.Evaluate(harness.Config{Seed: seed, Engine: settings, Backend: rec}, []*App{app})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	targets, err := NewAnalyzer(app, Options{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	jobs := HuntJobsFor(app, Options{Seed: SiteSeed(seed, app.Short), Settings: settings}, targets)
	if len(jobs) == 0 || len(jobs) != len(rec.jobs) {
		t.Fatalf("HuntJobsFor planned %d jobs, the harness %d", len(jobs), len(rec.jobs))
	}
	fp := app.Fingerprint()
	for i, j := range jobs {
		h := rec.jobs[i]
		if !reflect.DeepEqual(j, h) {
			t.Errorf("job %d: HuntJobsFor %+v, harness %+v", i, j, h)
		}
		if j.SiteKind == "" || j.SitePath == "" {
			t.Errorf("%s: job carries no structured site identity: %+v", j.Site, j)
		}
		if a, b := dispatch.JobKey(fp, j), dispatch.JobKey(fp, h); a != b {
			t.Errorf("%s: JobKey %s from HuntJobsFor, %s from the harness", j.Site, a, b)
		}
	}
}
