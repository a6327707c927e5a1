package absint_test

import (
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diode/internal/absint"
	"diode/internal/apps"
	"diode/internal/discover"
)

var updateAnalysis = flag.Bool("update-analysis", false,
	"rewrite the golden recorded-point digests in testdata/analysis.golden")

// analysisPrograms lists the programs TestAnalysisGolden analyzes: the
// seven applications, then every non-safe arith probe of each of them.
func analysisPrograms(t *testing.T) []*apps.App {
	t.Helper()
	progs := apps.All()
	for _, a := range apps.All() {
		sites, err := a.Sites(false)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			if s.Kind != discover.KindArith || s.Triage == discover.TriageSafe {
				continue
			}
			p, err := a.Probe(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
		}
	}
	return progs
}

type recorded struct {
	fn, path string
	v        absint.Value
}

// passDigest folds one pass's recorded points, sorted by function and
// path, into h: each point's function, path and every Value field.
func passDigest(h hash.Hash64, an *absint.Analysis, guarded bool) int {
	var pts []recorded
	an.EachPoint(guarded, func(fn, path string, v absint.Value) {
		pts = append(pts, recorded{fn, path, v})
	})
	slices.SortFunc(pts, func(a, b recorded) int {
		return cmp.Or(cmp.Compare(a.fn, b.fn), cmp.Compare(a.path, b.path))
	})
	var buf [8]byte
	num := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			num(1)
		} else {
			num(0)
		}
	}
	num(uint64(len(pts)))
	for _, p := range pts {
		str(p.fn)
		str(p.path)
		v := p.v
		num(uint64(v.W))
		num(v.Lo)
		num(v.Hi)
		num(v.KnownMask)
		num(v.KnownVal)
		flag(v.MayWrap)
		flag(v.MustWrap)
		flag(v.Bot)
	}
	return len(pts)
}

// TestAnalysisGolden pins every value the abstract interpreter records:
// per program, the guarded and unguarded point counts and one digest over
// each point's function, path and Value fields. A change meant to keep the
// analysis (how states are stored, when paths are built) must pass it
// unedited; rerun with -update-analysis only for a change meant to alter
// recorded values, which also moves the triage goldens.
func TestAnalysisGolden(t *testing.T) {
	var b strings.Builder
	for _, a := range analysisPrograms(t) {
		an, err := absint.Analyze(a.Program)
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		h := fnv.New64a()
		g := passDigest(h, an, true)
		u := passDigest(h, an, false)
		fmt.Fprintf(&b, "%s guarded=%d unguarded=%d digest=%016x\n", a.Short, g, u, h.Sum64())
	}
	got := b.String()
	path := filepath.Join("testdata", "analysis.golden")
	if *updateAnalysis {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-analysis to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("recorded points diverge from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("analysis covers %d programs, %s has %d", len(gl)-1, path, len(wl)-1)
	}
}

// BenchmarkTriage runs the abstract interpreter, both passes, over the
// seven applications' finalized programs: the static triage every set-up
// pays before any hunt.
func BenchmarkTriage(b *testing.B) {
	all := apps.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range all {
			if _, err := absint.Analyze(a.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
}
