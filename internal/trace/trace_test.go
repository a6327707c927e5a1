package trace

import (
	"testing"
	"testing/quick"

	"diode/internal/bv"
	"diode/internal/interp"
)

func entry(label string, cond *bv.Bool) Entry {
	return Entry{Label: label, Cond: cond, Count: 1}
}

func TestCompressCoalescesByLabel(t *testing.T) {
	x := bv.Var(32, "tr_x")
	c1 := bv.Ugt(x, bv.Const(32, 0))
	c2 := bv.Ugt(x, bv.Const(32, 16))
	c3 := bv.NotB(bv.Ugt(x, bv.Const(32, 32)))
	p := Path{
		entry("loop", c1),
		entry("check", bv.Ult(x, bv.Const(32, 100))),
		entry("loop", c2),
		entry("loop", c3),
	}
	got := Compress(p)
	if len(got) != 2 {
		t.Fatalf("compressed length = %d, want 2", len(got))
	}
	if got[0].Label != "loop" || got[1].Label != "check" {
		t.Fatalf("order not preserved: %q, %q", got[0].Label, got[1].Label)
	}
	if got[0].Count != 3 || got[1].Count != 1 {
		t.Fatalf("counts = %d,%d", got[0].Count, got[1].Count)
	}
	// The coalesced loop constraint is the conjunction: 16 < x ≤ 32.
	for _, tc := range []struct {
		v    uint64
		want bool
	}{{20, true}, {32, true}, {10, false}, {33, false}} {
		ok, err := bv.Assignment{"tr_x": tc.v}.EvalBool(got[0].Cond)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("x=%d: conjunction = %v, want %v", tc.v, ok, tc.want)
		}
	}
}

func TestCompressEmptyAndSingle(t *testing.T) {
	if got := Compress(nil); len(got) != 0 {
		t.Fatal("compress(ε) must be ε")
	}
	x := bv.Var(8, "tr_s")
	p := Path{entry("a", bv.Eq(x, bv.Const(8, 1)))}
	got := Compress(p)
	if len(got) != 1 || got[0] != p[0] {
		t.Fatalf("singleton path changed: %v", got)
	}
}

// TestCompressSemanticsPreserved: the conjunction of all entries before and
// after compression must be logically equal. Checked by evaluation over
// random assignments.
func TestCompressSemanticsPreserved(t *testing.T) {
	x := bv.Var(8, "tr_q")
	y := bv.Var(8, "tr_r")
	p := Path{
		entry("l1", bv.Ult(x, bv.Const(8, 200))),
		entry("l2", bv.Ugt(y, bv.Const(8, 3))),
		entry("l1", bv.Ult(x, bv.Const(8, 150))),
		entry("l2", bv.Ugt(y, bv.Const(8, 7))),
		entry("l3", bv.Eq(bv.And(x, bv.Const(8, 1)), bv.Const(8, 0))),
		entry("l1", bv.Ult(x, bv.Const(8, 100))),
	}
	c := Compress(p)
	f := func(a, b uint64) bool {
		m := bv.Assignment{"tr_q": a & 0xFF, "tr_r": b & 0xFF}
		before, err1 := m.EvalBool(p.Conds())
		after, err2 := m.EvalBool(c.Conds())
		return err1 == nil && err2 == nil && before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelevantFiltersByVariableOverlap(t *testing.T) {
	w := bv.Var(32, "/h/width")
	h := bv.Var(32, "/h/height")
	other := bv.Var(32, "/h/other")
	beta := bv.OverflowCond(bv.Mul(w, h))
	p := Path{
		entry("widthcheck", bv.Ult(w, bv.Const(32, 1000000))),
		entry("othercheck", bv.Ult(other, bv.Const(32, 5))),
		entry("heightcheck", bv.Ult(h, bv.Const(32, 1000000))),
	}
	got := Relevant(p, beta)
	if len(got) != 2 {
		t.Fatalf("relevant kept %d entries, want 2", len(got))
	}
	if got[0].Label != "widthcheck" || got[1].Label != "heightcheck" {
		t.Fatalf("labels = %q, %q", got[0].Label, got[1].Label)
	}
}

func TestFromBranchesAndDynamicCount(t *testing.T) {
	x := bv.Var(8, "tr_b")
	recs := []interp.BranchRecord{
		{Label: "l", Taken: true, Cond: bv.Ult(x, bv.Const(8, 9))},
		{Label: "l", Taken: false, Cond: bv.NotB(bv.Ult(x, bv.Const(8, 3)))},
	}
	p := FromBranches(recs)
	if len(p) != 2 || p[0].Count != 1 || p[1].Count != 1 {
		t.Fatalf("path = %v", p)
	}
	c := Compress(p)
	if len(c) != 1 || c[0].Count != 2 {
		t.Fatalf("compressed = %v", c)
	}
}
