package core

import (
	"testing"

	"diode/internal/bv"
	"diode/internal/discover"
	"diode/internal/interp"
	"diode/internal/trace"
)

// TestTargetDerivedLookups pins the lookup structures newTarget derives:
// PathEntry finds labels on the seed path, and the seed-branch view folds
// the raw records into first-occurrence order and per-label directions.
func TestTargetDerivedLookups(t *testing.T) {
	x := bv.Var(8, "tg_x")
	path := trace.Path{
		{Label: "a", Cond: bv.Ult(x, bv.Const(8, 10)), Count: 1},
		{Label: "b", Cond: bv.Ugt(x, bv.Const(8, 2)), Count: 2},
	}
	raw := []interp.BranchRecord{
		{Label: "a", Taken: true},
		{Label: "b", Taken: false},
		{Label: "a", Taken: false}, // loop head: both directions
	}
	tg := newTarget(discover.Site{Name: "s"}, nil, nil, nil, nil, path, raw)

	if tg.Site != "s" || tg.DynamicBranches != len(raw) {
		t.Fatalf("site %q, dynamic branches %d", tg.Site, tg.DynamicBranches)
	}
	e, ok := tg.PathEntry("b")
	if !ok || e.Cond != path[1].Cond {
		t.Fatalf("PathEntry(b) = %v, %v", e, ok)
	}
	if _, ok := tg.PathEntry("missing"); ok {
		t.Fatal("PathEntry found a label that is not on the path")
	}
	if order := tg.branchOrder; len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("branch order = %v", order)
	}
	if dirs := tg.seedDirs; dirs["a"] != (dirSet{t: true, f: true}) || dirs["b"] != (dirSet{f: true}) {
		t.Fatalf("direction sets = %v", tg.seedDirs)
	}
}
