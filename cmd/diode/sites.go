package main

import (
	"fmt"
	"sort"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
)

// sitesListing returns the -sites output for one application: exactly the
// discovery listing, so the bytes match the golden files under
// internal/apps/testdata/discovered and the `make discover-smoke` diff.
func sitesListing(app *apps.App) (string, error) {
	sites, err := app.Discovered()
	if err != nil {
		return "", err
	}
	return discover.Format(sites), nil
}

// triageListing returns the -triage output for one application: exactly the
// triage listing, so the bytes match the golden files under
// internal/apps/testdata/triage and the `make triage-smoke` diff.
func triageListing(app *apps.App) (string, error) {
	sites, err := app.Triaged()
	if err != nil {
		return "", err
	}
	return discover.FormatTriage(sites), nil
}

// discoveryOrder reorders analyzed targets into static discovery order
// (program traversal order), the -discover sweep order. Analysis order is
// seed-execution order; discovery order is the stable program-text order,
// so a -discover sweep lists sites the way a reader of the listing expects
// regardless of which path the seed input took.
func discoveryOrder(sites []discover.Site, targets []*core.Target) {
	order := make(map[string]int, len(sites))
	for i, s := range sites {
		if s.Kind == discover.KindAlloc {
			order[s.Name] = i
		}
	}
	rank := func(t *core.Target) int {
		if r, ok := order[t.Site]; ok {
			return r
		}
		return len(sites) // unreachable defensively: analysis ⊆ discovery
	}
	sort.SliceStable(targets, func(i, j int) bool { return rank(targets[i]) < rank(targets[j]) })
}

// discoverySummary renders the -discover footer: the full static surface
// next to how much of it the seed input dynamically reaches.
func discoverySummary(sites []discover.Site, hunted int) string {
	var alloc, arith int
	for _, s := range sites {
		switch s.Kind {
		case discover.KindAlloc:
			alloc++
		case discover.KindArith:
			arith++
		}
	}
	return fmt.Sprintf("discovery v%s: %d sites (%d alloc, %d arith); %d of %d alloc sites reached tainted by the seed input",
		discover.Version, alloc+arith, alloc, arith, hunted, alloc)
}
