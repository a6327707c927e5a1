package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"diode/internal/core"
	"diode/internal/solver"
)

// sampleJobs covers every kind and every optional field of the Job record.
func sampleJobs() []Job {
	return []Job{
		{ID: 0, Kind: KindHunt, App: "dillo", Site: "dillo:png.c@203",
			SiteKind: "alloc", SitePath: "s2.else.s0", Seed: -7},
		{ID: 1, Kind: KindSamePath, App: "vlc", Site: "vlc:block.c@54", Seed: 99,
			Opts: Options{NoTriage: true}},
		{ID: 2, Kind: KindSuccessRate, App: "gifview", Site: "gifview:gif.c@155",
			Seed: 1 << 60, SampleN: 200, Enforced: []string{"a", "b"}},
	}
}

// TestJobStreamRoundTrip pins WriteJobs/ReadJobs as exact inverses.
func TestJobStreamRoundTrip(t *testing.T) {
	jobs := sampleJobs()
	var buf bytes.Buffer
	if err := WriteJobs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, got) {
		t.Fatalf("round trip changed the batch:\nin:  %+v\nout: %+v", jobs, got)
	}
}

// TestJobStreamRejectsUnknownFields pins that a job line naming a field
// this build lacks — here an options knob that no longer exists, including
// the budgets that became constants — fails the stream instead of running
// silently with the defaults, both in ReadJobs and in the worker loop.
func TestJobStreamRejectsUnknownFields(t *testing.T) {
	for _, opts := range []string{
		`{"oneShotSolver":true}`,
		`{"solverMode":1}`,
		`{"oneShotSampling":true}`,
		`{"disableCompression":true}`,
		`{"disableRelevanceFilter":true}`,
		`{"initialAttempts":3}`,
		`{"maxEnforce":40}`,
		`{"fuel":1000}`,
	} {
		line := `{"id":1,"kind":"hunt","app":"vlc","site":"vlc:block.c@54","seed":8,"opts":` + opts + "}\n"
		if _, err := ReadJobs(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), "corrupt job stream") {
			t.Errorf("ReadJobs(opts %s) = %v, want a corrupt job stream error", opts, err)
		}
		var out bytes.Buffer
		err := WorkerMain(context.Background(), nil, strings.NewReader(line), &out)
		if err == nil || !strings.Contains(err.Error(), "corrupt job stream") {
			t.Errorf("WorkerMain(opts %s) = %v, want a corrupt job stream error", opts, err)
		}
		if strings.Contains(out.String(), `"type":"result"`) {
			t.Errorf("worker ran the job with opts %s anyway:\n%s", opts, out.String())
		}
	}
}

// TestResultRoundTrip pins the Result JSON codec, including the base64 input
// bytes and the embedded solver stats.
func TestResultRoundTrip(t *testing.T) {
	in := Result{
		JobID: 3, Kind: KindHunt, App: "dillo", Site: "dillo:png.c@203",
		Verdict: core.VerdictExposed.String(), ErrorType: "SIGSEGV/InvalidWrite",
		Enforced: []string{"x@1", "y@2"}, Runs: 17, DynamicBranches: 9,
		Input: []byte{0x89, 'P', 'N', 'G', 0x00, 0xff}, DiscoveryMS: 12,
		Stats: solver.Stats{SATSolves: 4, GenFailures: 1},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the result:\nin:  %+v\nout: %+v", in, out)
	}
	if v, ok := out.CoreVerdict(); !ok || v != core.VerdictExposed {
		t.Fatalf("CoreVerdict = %v, %v", v, ok)
	}
}

// TestJobValidate pins the validation rules backends rely on.
func TestJobValidate(t *testing.T) {
	valid := sampleJobs()
	// Arith-kind sites are executable via the probe transformation.
	valid = append(valid, Job{Kind: KindHunt, App: "a", Site: "s", SiteKind: "arith", Seed: 1})
	for _, j := range valid {
		if err := j.Validate(); err != nil {
			t.Errorf("%+v: unexpected validation error %v", j, err)
		}
	}
	invalid := []Job{
		{Kind: "nonsense", App: "dillo", Site: "s"},
		{Kind: KindHunt, Site: "s"},                           // no app
		{Kind: KindHunt, App: "dillo"},                        // no site
		{Kind: KindHunt, App: "dillo", Site: "s", SampleN: 5}, // hunt cannot sample
		{Kind: KindSamePath, App: "a", Site: "s", Enforced: []string{"x"}},
		{Kind: KindSuccessRate, App: "a", Site: "s", SampleN: 0},    // needs a budget
		{Kind: KindHunt, App: "a", Site: "s", SiteKind: "nonsense"}, // unknown kind
	}
	for _, j := range invalid {
		if err := j.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", j)
		}
	}
}

// FuzzJobResultCodec is the round-trip fuzz target for the wire codec: any
// line that decodes as a valid Job (or any line that decodes as a Result)
// must re-encode and decode back to a deeply equal value — the property the
// worker protocol and a future networked queue depend on. The corpus seeds
// cover every kind, negative/huge seeds, unicode sites and the base64 input
// path.
func FuzzJobResultCodec(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJobs(&buf, sampleJobs()); err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f.Add([]byte(line))
	}
	f.Add([]byte(`{"jobID":1,"kind":"hunt","app":"dillo","site":"dillo:png.c@203","verdict":"exposed","input":"iVBORw==","stats":{}}`))
	f.Add([]byte(`{"id":4,"kind":"same-path","app":"vlc","site":"σ/ütf@8","seed":-1}`))

	// One encode canonicalizes (e.g. a case-folded field name or an empty
	// slice that omitempty drops); from then on encode∘decode must be a
	// byte-identical fixed point — the stability the worker protocol and any
	// stored job/result log depend on.
	fixedPoint := func(t *testing.T, v, back any) {
		t.Helper()
		enc1, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%T failed to re-encode: %v", v, err)
		}
		if err := json.Unmarshal(enc1, back); err != nil {
			t.Fatalf("re-encoded %T failed to decode: %v", v, err)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("decoded %T failed to encode again: %v", v, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%T encoding is not a fixed point:\nfirst:  %s\nsecond: %s", v, enc1, enc2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var job Job
		if err := json.Unmarshal(data, &job); err == nil && job.Validate() == nil {
			fixedPoint(t, &job, &Job{})
		}
		var res Result
		if err := json.Unmarshal(data, &res); err == nil {
			fixedPoint(t, &res, &Result{})
		}
	})
}
