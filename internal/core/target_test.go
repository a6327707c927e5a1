package core

import (
	"testing"

	"diode/internal/bv"
	"diode/internal/interp"
	"diode/internal/trace"
)

// TestTargetDerivedLookups pins the Analyzer-computed lookup structures
// against the on-the-fly fallback: a finalized Target and a hand-built one
// must answer PathEntry and the seed-branch view identically.
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
	plain := &Target{Site: "s", SeedPath: path, RawSeedBranches: raw}
	final := &Target{Site: "s", SeedPath: path, RawSeedBranches: raw}
	final.finalize()

	for _, tg := range []*Target{plain, final} {
		e, ok := tg.PathEntry("b")
		if !ok || e.Cond != path[1].Cond {
			t.Fatalf("PathEntry(b) = %v, %v", e, ok)
		}
		if _, ok := tg.PathEntry("missing"); ok {
			t.Fatal("PathEntry found a label that is not on the path")
		}
		order, dirs := tg.seedBranchView()
		if len(order) != 2 || order[0] != "a" || order[1] != "b" {
			t.Fatalf("branch order = %v", order)
		}
		if dirs["a"] != (dirSet{t: true, f: true}) || dirs["b"] != (dirSet{f: true}) {
			t.Fatalf("direction sets = %v", dirs)
		}
	}
}
