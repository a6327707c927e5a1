package sat

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// dirtySolver returns a solver that has refuted a larger instance than any
// trajectory case: PHP(8,7) beside a satisfiable 3-CNF over 400 further
// variables. It leaves learnt clauses, at least one arena compaction, a
// decision focus on the pigeonhole variables and a root-level conflict
// behind.
func dirtySolver(t *testing.T, seed int64) *Solver {
	t.Helper()
	s := New(Options{Seed: seed + 100, RandomPolarity: 0.3})
	addPigeonhole(s, 8, 7)
	focus := make([]Var, s.NumVars())
	for i := range focus {
		focus[i] = Var(i)
	}
	rng := rand.New(rand.NewSource(seed))
	base := s.NumVars()
	for i := 0; i < 400; i++ {
		s.NewVar()
	}
	for i := 0; i < 200; i++ {
		vs := rng.Perm(400)[:3]
		s.AddClause(MkLit(Var(base+vs[0]), rng.Intn(2) == 1), MkLit(Var(base+vs[1]), rng.Intn(2) == 1), MkLit(Var(base+vs[2]), rng.Intn(2) == 1))
	}
	if res := s.SolveUnderAssumptions(nil); res != Unsat {
		t.Fatalf("dirty instance: %v, want unsat", res)
	}
	s.SetDecisionFocus(focus, 1<<40)
	if len(s.learnts) == 0 || s.compactions == 0 || s.focus == nil || !s.unsatRoot {
		t.Fatalf("dirty instance left learnts=%d compactions=%d focus=%d unsatRoot=%v; want all set",
			len(s.learnts), s.compactions, len(s.focus), s.unsatRoot)
	}
	return s
}

// TestResetReplaysGoldenTrajectory replays every trajectory case on a
// solver Reset after refuting a larger, unrelated instance. Reset keeps
// that instance's storage, so the replay runs on slices and watch lists
// longer than it needs; its trajectory must equal the golden one line for
// line.
func TestResetReplaysGoldenTrajectory(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trajectory.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tc := range trajectoryCases {
		for seed := int64(1); seed <= 3; seed++ {
			s := dirtySolver(t, seed)
			s.Reset(trajectoryOptions(seed))
			b.WriteString(replay(tc, seed, s))
		}
	}
	if got := b.String(); got != string(golden) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("recycled solver diverges from the golden trajectory at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("recycled trajectory has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestResetMatchesNew checks Reset field by field against New: every
// scalar, counter and random-stream state must equal a fresh solver's, and
// every slice must have the fresh solver's contents, whatever capacity it
// kept. A field added to Solver and forgotten by Reset fails here.
func TestResetMatchesNew(t *testing.T) {
	opts := Options{Seed: 7, RandomPolarity: 0.1, MaxConflicts: 50}
	s := dirtySolver(t, 1)
	s.Reset(opts)
	if diff := stateDiff("Solver", reflect.ValueOf(New(opts)).Elem(), reflect.ValueOf(s).Elem()); diff != "" {
		t.Fatalf("Reset leaves state New does not: %s", diff)
	}
	// The watch lists past the empty watches slice are kept for reuse;
	// NewVar must hand them out empty.
	if cap(s.watches) == 0 || cap(s.watches[:1][0]) == 0 {
		t.Fatalf("Reset dropped the watch-list storage")
	}
	v := s.NewVar()
	if len(s.watches[PosLit(v)]) != 0 || len(s.watches[NegLit(v)]) != 0 {
		t.Fatalf("NewVar after Reset reuses non-empty watch lists")
	}
}

// stateDiff describes the first difference between two values of one
// type, comparing slices by length and elements but not capacity, and
// pointers by what they point to.
func stateDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return stateDiff(path, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := path + "." + a.Type().Field(i).Name
			if d := stateDiff(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !a.Equal(b) {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	return ""
}
