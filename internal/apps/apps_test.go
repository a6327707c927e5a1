package apps

import (
	"testing"

	"diode/internal/bv"
	"diode/internal/field"
	"diode/internal/interp"
	"diode/internal/lang"
)

// everyByte is a Symbolic table reading input bytes 0..n-1 through m: each
// byte as its field-level term, or as in[i] where no field of m covers it.
func everyByte(m *field.Map, n int) []*bv.Term {
	offsets := make([]int, n)
	for i := range offsets {
		offsets[i] = i
	}
	return m.InputTerms(offsets)
}

// TestSeedsRunClean: every application must process its seed input with no
// overflow, no memory errors and a normal exit — the paper's premise that
// "the applications process [the seed inputs] correctly with no overflows".
func TestSeedsRunClean(t *testing.T) {
	for _, a := range All() {
		out := interp.Run(a.Program, a.Format.Seed, interp.Options{TrackTaint: true})
		if out.Kind != interp.OutOK {
			t.Errorf("%s: seed outcome = %v (abort=%q err=%v)", a.Short, out.Kind, out.AbortMsg, out.Err)
			continue
		}
		if len(out.MemErrs) != 0 {
			t.Errorf("%s: seed run has memory errors: %+v", a.Short, out.MemErrs)
		}
		for _, ev := range out.Allocs {
			if ev.Wrapped {
				t.Errorf("%s: seed run overflows at %s", a.Short, ev.Site)
			}
		}
	}
}

// TestTargetSiteCounts: the number of distinct allocation sites whose size is
// influenced by the input must match Table 1's "Total Target Sites" column
// for the paper suite, and the documented site counts for the extended one.
func TestTargetSiteCounts(t *testing.T) {
	want := map[string]int{
		"dillo":       12,
		"vlc":         4,
		"swfplay":     8,
		"cwebp":       7,
		"imagemagick": 9,
		"gifview":     5,
		"tifthumb":    5,
	}
	for _, a := range All() {
		out := interp.Run(a.Program, a.Format.Seed, interp.Options{TrackTaint: true})
		seen := map[string]bool{}
		for _, ev := range out.Allocs {
			if !ev.Taint.Empty() {
				seen[ev.Site] = true
			}
		}
		if len(seen) != want[a.Short] {
			names := make([]string, 0, len(seen))
			for s := range seen {
				names = append(names, s)
			}
			t.Errorf("%s: %d tainted sites, want %d: %v", a.Short, len(seen), want[a.Short], names)
		}
	}
}

// TestPaperTablesConsistent: the embedded paper expectations must reproduce
// Table 1's totals (40 sites: 14 exposed, 17 unsatisfiable, 9 prevented).
func TestPaperTablesConsistent(t *testing.T) {
	wantPerApp := map[string][3]int{ // exposed, unsat, prevented
		"dillo":       {3, 1, 8},
		"vlc":         {4, 0, 0},
		"swfplay":     {3, 5, 0},
		"cwebp":       {1, 6, 0},
		"imagemagick": {3, 5, 1},
	}
	totalSites, totalExposed := 0, 0
	for _, a := range Paper() {
		var got [3]int
		for _, ps := range a.Paper {
			got[int(ps.Class)]++
		}
		if got != wantPerApp[a.Short] {
			t.Errorf("%s: paper classification %v, want %v", a.Short, got, wantPerApp[a.Short])
		}
		totalSites += len(a.Paper)
		totalExposed += got[0]
	}
	if totalSites != 40 {
		t.Errorf("total paper sites = %d, want 40", totalSites)
	}
	if totalExposed != 14 {
		t.Errorf("total exposed = %d, want 14", totalExposed)
	}
}

// TestPaperSitesMatchPrograms: every paper row must correspond to a real
// allocation site in the program, and vice versa for tainted sites.
func TestPaperSitesMatchPrograms(t *testing.T) {
	for _, a := range All() {
		progSites := map[string]bool{}
		a.Program.WalkStmts(func(_ *lang.Func, _ string, s lang.Stmt) {
			if al, ok := s.(lang.Alloc); ok {
				progSites[al.Site] = true
			}
		})
		for _, ps := range a.Paper {
			if !progSites[ps.Site] {
				t.Errorf("%s: paper row %s has no allocation site in the program", a.Short, ps.Site)
			}
		}
	}
}

// TestSeedsExerciseAllPaperSites: every classified site must execute on the
// seed input (Table 1 counts *exercised* sites).
func TestSeedsExerciseAllPaperSites(t *testing.T) {
	for _, a := range All() {
		out := interp.Run(a.Program, a.Format.Seed, interp.Options{TrackTaint: true})
		executed := map[string]bool{}
		for _, ev := range out.Allocs {
			executed[ev.Site] = true
		}
		for _, ps := range a.Paper {
			if !executed[ps.Site] {
				t.Errorf("%s: site %s not exercised by the seed", a.Short, ps.Site)
			}
		}
	}
}

// TestRegistrySplit: All is exactly Paper followed by Extended, extended
// apps carry no paper expectations, and ByName resolves every registered
// application.
func TestRegistrySplit(t *testing.T) {
	paper, ext, all := Paper(), Extended(), All()
	if len(all) != len(paper)+len(ext) {
		t.Fatalf("All has %d apps, want %d", len(all), len(paper)+len(ext))
	}
	for i, a := range append(paper, ext...) {
		if all[i].Short != a.Short {
			t.Errorf("All[%d] = %s, want %s", i, all[i].Short, a.Short)
		}
	}
	for _, a := range ext {
		if len(a.Paper) != 0 {
			t.Errorf("extended app %s carries paper expectations", a.Short)
		}
	}
	for _, a := range all {
		got, err := ByName(a.Short)
		if err != nil || got.Short != a.Short {
			t.Errorf("ByName(%q) = %v, %v", a.Short, got, err)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted an unknown application")
	}
}

// TestSymbolicRunRecordsTargets: stage-2 instrumentation must attach a
// symbolic size expression to every tainted site.
func TestSymbolicRunRecordsTargets(t *testing.T) {
	for _, a := range All() {
		out := interp.Run(a.Program, a.Format.Seed, interp.Options{Symbolic: everyByte(a.Format.Fields, len(a.Format.Seed))})
		if out.Kind != interp.OutOK {
			t.Fatalf("%s: symbolic run outcome %v", a.Short, out.Kind)
		}
		for _, ev := range out.Allocs {
			if !ev.Taint.Empty() && ev.Sym == nil {
				t.Errorf("%s: tainted site %s has no symbolic size", a.Short, ev.Site)
			}
		}
		if len(out.Branches) == 0 {
			t.Errorf("%s: no relevant branches recorded", a.Short)
		}
	}
}
