package apps

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diode/internal/discover"
)

var updateDiscovered = flag.Bool("update-discovered", false,
	"rewrite the golden discovered-site listings under testdata/discovered")

// TestGoldenDiscoveredSites pins the full discovered-site listing of every
// registered application. The listing is byte-identical to `diode -app X
// -sites` (and to what `make discover-smoke` diffs), so a change here means
// the discovery pass or a guest program changed — if intentional, rerun
// with -update-discovered.
func TestGoldenDiscoveredSites(t *testing.T) {
	for _, a := range All() {
		sites, err := a.Discovered()
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		got := discover.Format(sites)
		path := filepath.Join("testdata", "discovered", a.Short+".golden")
		if *updateDiscovered {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-discovered to create)", a.Short, err)
		}
		if got != string(want) {
			t.Errorf("%s: discovered sites diverge from %s (rerun with -update-discovered if intentional)\ngot:\n%swant:\n%s",
				a.Short, path, got, want)
		}
	}
}

// TestPaperSitesAreDiscovered is the superset assertion of the registry
// refactor: the curated PaperSite tables are expectations layered over
// discovery, so every hand-named site must be found by the static pass as
// an alloc-kind site.
func TestPaperSitesAreDiscovered(t *testing.T) {
	for _, a := range All() {
		sites, err := a.Discovered()
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		allocs := make(map[string]bool)
		for _, s := range sites {
			if s.Kind == discover.KindAlloc {
				allocs[s.Name] = true
			}
		}
		for _, ps := range a.Paper {
			if !allocs[ps.Site] {
				t.Errorf("%s: hand-named site %s not discovered (discovery must be a superset of the curated tables)",
					a.Short, ps.Site)
			}
		}
	}
}

// TestDiscoveredDeterministicAcrossInstances checks that a freshly
// constructed instance discovers exactly the sites the shared registry
// instance does, in the same order.
func TestDiscoveredDeterministicAcrossInstances(t *testing.T) {
	for short, build := range constructors {
		reg, err := ByName(short)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reg.Discovered()
		if err != nil {
			t.Fatal(err)
		}
		got, err := build().Discovered()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: discovery differs across instances", short)
		}
	}
}

// TestSiteNamesUnique: no two discovered sites of an application share a
// name, whatever their kinds, so a name alone finds a site's record (the
// Analyzer resolves a probe program's arith target by its name).
func TestSiteNamesUnique(t *testing.T) {
	for _, a := range All() {
		sites, err := a.Discovered()
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		kinds := make(map[string]discover.Kind, len(sites))
		for _, s := range sites {
			if k, dup := kinds[s.Name]; dup {
				t.Errorf("%s: site name %s is both %s and %s", a.Short, s.Name, k, s.Kind)
			}
			kinds[s.Name] = s.Kind
		}
	}
}

// TestProbeSitesAreBase: a probe program's site list is its base
// application's, under both triage settings, so probe programs are never
// discovered or triaged themselves.
func TestProbeSitesAreBase(t *testing.T) {
	a := VLC()
	sites, err := a.Sites(false)
	if err != nil {
		t.Fatal(err)
	}
	var arith string
	for _, s := range sites {
		if s.Kind == discover.KindArith {
			arith = s.Name
			break
		}
	}
	p, err := a.Probe(arith)
	if err != nil {
		t.Fatal(err)
	}
	for _, noTriage := range []bool{false, true} {
		want, err := a.Sites(noTriage)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Sites(noTriage)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got) != len(want) || &got[0] != &want[0] {
			t.Errorf("noTriage=%v: probe site list is not the base's (%d sites, base %d)", noTriage, len(got), len(want))
		}
	}
	if p.discovered != nil || p.triaged != nil {
		t.Error("Sites ran discovery or triage over the probe program")
	}
}
