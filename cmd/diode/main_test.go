package main

import (
	"strings"
	"testing"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
)

// TestSitesListingFormat pins the -sites output format: a tab-aligned header
// row, one row per discovered site with the site name first and the kind in
// column two, matching the discovery listing the golden files pin.
func TestSitesListingFormat(t *testing.T) {
	app, err := apps.ByName("dillo")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sitesListing(app)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("listing has no site rows:\n%s", out)
	}
	header := strings.Fields(lines[0])
	want := []string{"SITE", "KIND", "FUNC", "TAINT", "EXPR"}
	if len(header) != len(want) {
		t.Fatalf("header = %v, want %v", header, want)
	}
	for i := range want {
		if header[i] != want[i] {
			t.Fatalf("header = %v, want %v", header, want)
		}
	}
	sites, err := app.Discovered()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines)-1 != len(sites) {
		t.Fatalf("%d rows for %d discovered sites", len(lines)-1, len(sites))
	}
	for i, s := range sites {
		fields := strings.Fields(lines[i+1])
		if len(fields) < 4 {
			t.Fatalf("row %d too short: %q", i, lines[i+1])
		}
		if fields[0] != s.Name {
			t.Errorf("row %d site = %q, want %q (rows must follow discovery order)", i, fields[0], s.Name)
		}
		if fields[1] != string(s.Kind) {
			t.Errorf("row %d kind = %q, want %q", i, fields[1], s.Kind)
		}
	}
	// The listing is byte-identical to the discovery formatter the goldens pin.
	if out != discover.Format(sites) {
		t.Error("sitesListing diverges from discover.Format")
	}
}

// TestDiscoverySummaryCounts pins the -discover footer format.
func TestDiscoverySummaryCounts(t *testing.T) {
	sites := []discover.Site{
		{Name: "a", Kind: discover.KindAlloc},
		{Name: "b", Kind: discover.KindArith},
		{Name: "c", Kind: discover.KindArith},
	}
	got := discoverySummary(sites, 1)
	want := "discovery v" + discover.Version + ": 3 sites (1 alloc, 2 arith); 1 of 1 alloc sites reached tainted by the seed input"
	if got != want {
		t.Errorf("summary = %q\nwant      %q", got, want)
	}
}

// TestDiscoveryOrderReorders: targets given in reversed order come back in
// discovery (program-text) order, stably.
func TestDiscoveryOrderReorders(t *testing.T) {
	sites := []discover.Site{
		{Name: "p:f#s0", Kind: discover.KindAlloc},
		{Name: "p:f#s1.e@*", Kind: discover.KindArith},
		{Name: "p:f#s2", Kind: discover.KindAlloc},
		{Name: "p:g#s0", Kind: discover.KindAlloc},
	}
	targets := []*core.Target{
		{Site: "p:g#s0"}, {Site: "p:f#s2"}, {Site: "p:f#s0"},
	}
	discoveryOrder(sites, targets)
	want := []string{"p:f#s0", "p:f#s2", "p:g#s0"}
	for i, w := range want {
		if targets[i].Site != w {
			t.Fatalf("target %d = %q, want %q", i, targets[i].Site, w)
		}
	}
}
