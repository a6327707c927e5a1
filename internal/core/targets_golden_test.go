package core

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diode/internal/apps"
	"diode/internal/bv"
	"diode/internal/discover"
)

var updateTargets = flag.Bool("update-targets", false,
	"rewrite the golden analyzed-target digests in testdata/targets.golden")

// targetHasher folds Targets into an FNV-64a digest. Terms and formulas are
// hash-consed DAGs, so each node is written once, in first-visit order, with
// its operands named by the numbers of their earlier entries: two digests
// agree exactly when the term structures do, and the walk stays linear in
// the DAG however much it shares.
type targetHasher struct {
	h     hash.Hash64
	terms map[*bv.Term]uint64
	bools map[*bv.Bool]uint64
	next  uint64
}

func newTargetHasher() *targetHasher {
	return &targetHasher{h: fnv.New64a(), terms: map[*bv.Term]uint64{}, bools: map[*bv.Bool]uint64{}}
}

func (th *targetHasher) num(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	th.h.Write(buf[:])
}

func (th *targetHasher) str(s string) {
	th.num(uint64(len(s)))
	th.h.Write([]byte(s))
}

// term writes t's unseen nodes and returns its number (0 for nil).
func (th *targetHasher) term(t *bv.Term) uint64 {
	if t == nil {
		return 0
	}
	if id, ok := th.terms[t]; ok {
		return id
	}
	x, y := th.term(t.X), th.term(t.Y)
	th.next++
	th.terms[t] = th.next
	th.str("T")
	for _, v := range []uint64{uint64(t.Kind), uint64(t.W), uint64(t.Hi), uint64(t.Lo), t.Val, x, y} {
		th.num(v)
	}
	th.str(t.Name)
	return th.next
}

// formula writes b's unseen nodes and returns its number (0 for nil).
func (th *targetHasher) formula(b *bv.Bool) uint64 {
	if b == nil {
		return 0
	}
	if id, ok := th.bools[b]; ok {
		return id
	}
	x, y := th.term(b.X), th.term(b.Y)
	a, c := th.formula(b.A), th.formula(b.B)
	th.next++
	th.bools[b] = th.next
	th.str("B")
	bval := uint64(0)
	if b.BVal {
		bval = 1
	}
	for _, v := range []uint64{uint64(b.Kind), bval, x, y, a, c} {
		th.num(v)
	}
	return th.next
}

func (th *targetHasher) target(t *Target) {
	th.str(t.Site)
	th.num(uint64(len(t.RelevantBytes)))
	for _, off := range t.RelevantBytes {
		th.num(uint64(off))
	}
	th.num(th.term(t.Expr))
	th.num(th.formula(t.Beta))
	th.num(uint64(t.DynamicBranches))
	th.num(uint64(len(t.SeedPath)))
	for _, e := range t.SeedPath {
		th.str(e.Label)
		th.num(th.formula(e.Cond))
		th.num(uint64(e.Count))
	}
}

// goldenPrograms lists the programs TestTargetsGolden analyzes: the seven
// applications, then every non-safe arith probe of the four applications
// whose probes the arith-surface benchmark workload hunts.
func goldenPrograms(t *testing.T) []*apps.App {
	t.Helper()
	progs := apps.All()
	for _, short := range []string{"vlc", "imagemagick", "gifview", "tifthumb"} {
		a, err := apps.ByName(short)
		if err != nil {
			t.Fatal(err)
		}
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

// TestTargetsGolden pins what analysis (stages 1–3) produces for every
// program: per program, the Target count and one digest over each Target's
// site, relevant bytes, Expr, Beta, dynamic branch count and SeedPath
// labels, conditions and counts. A change meant to keep analysis output
// (how the symbolic run is recorded, how terms are built) must pass it
// unedited; rerun with -update-targets only for a change meant to alter the
// Targets, which also moves tables.
func TestTargetsGolden(t *testing.T) {
	var b strings.Builder
	for _, a := range goldenPrograms(t) {
		targets, err := NewAnalyzer(a, Options{}).AnalyzeContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		th := newTargetHasher()
		for _, tg := range targets {
			th.target(tg)
		}
		fmt.Fprintf(&b, "%s targets=%d digest=%016x\n", a.Short, len(targets), th.h.Sum64())
	}
	got := b.String()
	path := filepath.Join("testdata", "targets.golden")
	if *updateTargets {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-targets to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("analyzed targets diverge from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("analysis covers %d programs, %s has %d", len(gl)-1, path, len(wl)-1)
	}
}
