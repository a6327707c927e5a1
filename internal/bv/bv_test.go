package bv

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	tests := []struct {
		name string
		got  *Term
		want uint64
	}{
		{"add", Add(Const(8, 200), Const(8, 100)), 44},
		{"sub", Sub(Const(8, 5), Const(8, 10)), 251},
		{"mul", Mul(Const(16, 300), Const(16, 300)), 90000 & 0xFFFF},
		{"udiv", UDiv(Const(8, 100), Const(8, 7)), 14},
		{"udiv0", UDiv(Const(8, 100), Const(8, 0)), 0xFF},
		{"urem", URem(Const(8, 100), Const(8, 7)), 2},
		{"urem0", URem(Const(8, 100), Const(8, 0)), 100},
		{"and", And(Const(8, 0xF0), Const(8, 0x3C)), 0x30},
		{"or", Or(Const(8, 0xF0), Const(8, 0x0C)), 0xFC},
		{"xor", Xor(Const(8, 0xFF), Const(8, 0x0F)), 0xF0},
		{"shl", Shl(Const(8, 3), Const(8, 2)), 12},
		{"shl_over", Shl(Const(8, 3), Const(8, 9)), 0},
		{"lshr", LShr(Const(8, 0x80), Const(8, 3)), 0x10},
		{"ashr_neg", AShr(Const(8, 0x80), Const(8, 3)), 0xF0},
		{"ashr_over", AShr(Const(8, 0x80), Const(8, 100)), 0xFF},
		{"neg", Neg(Const(8, 1)), 0xFF},
		{"not", Not(Const(8, 0x0F)), 0xF0},
		{"zext", ZExt(16, Const(8, 0xAB)), 0xAB},
		{"sext", SExt(16, Const(8, 0x80)), 0xFF80},
		{"extract", Extract(11, 4, Const(16, 0xABCD)), 0xBC},
		{"trunc", Trunc(8, Const(32, 0x12345678)), 0x78},
	}
	for _, tt := range tests {
		v, ok := IsConst(tt.got)
		if !ok {
			t.Errorf("%s: not folded to constant: %s", tt.name, tt.got)
			continue
		}
		if v != tt.want {
			t.Errorf("%s: got 0x%X want 0x%X", tt.name, v, tt.want)
		}
	}
}

func TestInterning(t *testing.T) {
	x := Var(32, "x")
	y := Var(32, "y")
	a := Add(x, y)
	b := Add(x, y)
	if a != b {
		t.Fatal("structurally identical terms have different pointers")
	}
	if Var(32, "x") != x {
		t.Fatal("variable interning failed")
	}
	if Eq(x, y) != Eq(x, y) {
		t.Fatal("bool interning failed")
	}
}

func TestIdentities(t *testing.T) {
	x := Var(32, "x")
	zero := Const(32, 0)
	one := Const(32, 1)
	ones := Const(32, Mask(32))
	checks := []struct {
		name string
		got  *Term
		want *Term
	}{
		{"x+0", Add(x, zero), x},
		{"0+x", Add(zero, x), x},
		{"x-0", Sub(x, zero), x},
		{"x-x", Sub(x, x), zero},
		{"x*1", Mul(x, one), x},
		{"x*0", Mul(x, zero), zero},
		{"x&ones", And(x, ones), x},
		{"x&0", And(x, zero), zero},
		{"x|0", Or(x, zero), x},
		{"x^0", Xor(x, zero), x},
		{"x^x", Xor(x, x), zero},
		{"x<<0", Shl(x, zero), x},
		{"x>>0", LShr(x, zero), x},
		{"zext same", ZExt(32, x), x},
		{"not not", Not(Not(x)), x},
		{"add chain", Add(Add(x, one), one), Add(x, Const(32, 2))},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %s want %s", c.name, c.got, c.want)
		}
	}
}

func TestBoolIdentities(t *testing.T) {
	x := Var(8, "x")
	if Eq(x, x) != True() {
		t.Error("x = x should fold to true")
	}
	if Ult(x, x) != False() {
		t.Error("x < x should fold to false")
	}
	if Ult(x, Const(8, 0)) != False() {
		t.Error("x < 0 unsigned should fold to false")
	}
	if Ule(Const(8, 0), x) != True() {
		t.Error("0 ≤ x should fold to true")
	}
	if NotB(NotB(Eq(x, Const(8, 1)))) != Eq(x, Const(8, 1)) {
		t.Error("double negation should cancel")
	}
	if AndB(True(), Eq(x, Const(8, 1))) != Eq(x, Const(8, 1)) {
		t.Error("true ∧ p should fold to p")
	}
	if OrB(True(), Eq(x, Const(8, 1))) != True() {
		t.Error("true ∨ p should fold to true")
	}
}

// TestEvalMatchesGoSemantics checks, per operator, that symbolic construction
// plus evaluation agrees with direct Go machine arithmetic.
func TestEvalMatchesGoSemantics(t *testing.T) {
	widths := []uint8{1, 7, 8, 16, 31, 32, 33, 64}
	type binop struct {
		name  string
		mk    func(x, y *Term) *Term
		model func(x, y uint64, w uint8) uint64
	}
	ops := []binop{
		{"add", Add, func(x, y uint64, w uint8) uint64 { return (x + y) & Mask(w) }},
		{"sub", Sub, func(x, y uint64, w uint8) uint64 { return (x - y) & Mask(w) }},
		{"mul", Mul, func(x, y uint64, w uint8) uint64 { return (x * y) & Mask(w) }},
		{"and", And, func(x, y uint64, w uint8) uint64 { return x & y }},
		{"or", Or, func(x, y uint64, w uint8) uint64 { return x | y }},
		{"xor", Xor, func(x, y uint64, w uint8) uint64 { return x ^ y }},
		{"udiv", UDiv, func(x, y uint64, w uint8) uint64 {
			if y == 0 {
				return Mask(w)
			}
			return x / y
		}},
		{"urem", URem, func(x, y uint64, w uint8) uint64 {
			if y == 0 {
				return x
			}
			return x % y
		}},
		{"shl", Shl, func(x, y uint64, w uint8) uint64 {
			if y >= uint64(w) {
				return 0
			}
			return (x << y) & Mask(w)
		}},
		{"lshr", LShr, func(x, y uint64, w uint8) uint64 {
			if y >= uint64(w) {
				return 0
			}
			return (x & Mask(w)) >> y
		}},
	}
	for _, w := range widths {
		xv := Var(w, "qx")
		yv := Var(w, "qy")
		for _, op := range ops {
			expr := op.mk(xv, yv)
			f := func(x, y uint64) bool {
				x &= Mask(w)
				y &= Mask(w)
				got, err := Assignment{"qx": x, "qy": y}.Eval(expr)
				if err != nil {
					return false
				}
				return got == op.model(x, y, w)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("w=%d op=%s: %v", w, op.name, err)
			}
		}
	}
}

func TestEvalSignedOps(t *testing.T) {
	x := Var(8, "sx")
	f := func(v uint64) bool {
		v &= 0xFF
		sext, err := Assignment{"sx": v}.Eval(SExt(16, x))
		if err != nil {
			return false
		}
		want := uint64(int64(int8(v))) & 0xFFFF
		return sext == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("sext: %v", err)
	}
	g := func(a, b uint64) bool {
		a &= 0xFF
		b &= 0xFF
		lt, err := Assignment{"sx": a, "sy": b}.EvalBool(Slt(x, Var(8, "sy")))
		if err != nil {
			return false
		}
		return lt == (int8(a) < int8(b))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("slt: %v", err)
	}
}

func TestEvalUnboundVar(t *testing.T) {
	if _, err := (Assignment{}).Eval(Var(8, "missing")); err == nil {
		t.Fatal("expected error for unbound variable")
	}
}

func TestOverflowCondAdd(t *testing.T) {
	x := Var(32, "ox")
	y := Var(32, "oy")
	cond := OverflowCond(Add(x, y))
	f := func(a, b uint64) bool {
		a &= Mask(32)
		b &= Mask(32)
		got, err := Assignment{"ox": a, "oy": b}.EvalBool(cond)
		if err != nil {
			return false
		}
		return got == (a+b > Mask(32))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Directed boundary cases.
	for _, tc := range []struct {
		a, b uint64
		want bool
	}{
		{0xFFFFFFFF, 1, true},
		{0xFFFFFFFF, 0, false},
		{0x80000000, 0x80000000, true},
		{0x7FFFFFFF, 0x80000000, false},
	} {
		got, err := Assignment{"ox": tc.a, "oy": tc.b}.EvalBool(cond)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("add overflow(%#x,%#x) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestOverflowCondMul(t *testing.T) {
	for _, w := range []uint8{8, 16, 32} {
		x := Var(w, "mx")
		y := Var(w, "my")
		cond := OverflowCond(Mul(x, y))
		f := func(a, b uint64) bool {
			a &= Mask(w)
			b &= Mask(w)
			got, err := Assignment{"mx": a, "my": b}.EvalBool(cond)
			if err != nil {
				return false
			}
			// Ideal product exceeds the width iff the wide product's high
			// half is non-zero (w ≤ 32 keeps this exact in uint64).
			return got == (a*b > Mask(w) || (a != 0 && a*b/a != b))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("w=%d: %v", w, err)
		}
	}
}

func TestOverflowCondMulWide(t *testing.T) {
	// 64-bit multiply uses the division-based formulation.
	x := Var(64, "wx")
	y := Var(64, "wy")
	cond := OverflowCond(Mul(x, y))
	cases := []struct {
		a, b uint64
		want bool
	}{
		{1 << 32, 1 << 32, true},
		{1 << 32, 1<<32 - 1, false},
		{0, ^uint64(0), false},
		{^uint64(0), 2, true},
		{1, ^uint64(0), false},
	}
	for _, tc := range cases {
		got, err := Assignment{"wx": tc.a, "wy": tc.b}.EvalBool(cond)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("mul64 overflow(%#x,%#x) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestOverflowCondShl(t *testing.T) {
	x := Var(16, "hx")
	y := Var(16, "hy")
	cond := OverflowCond(Shl(x, y))
	f := func(a, b uint64) bool {
		a &= Mask(16)
		b &= 31 // keep shift amounts in an interesting range
		got, err := Assignment{"hx": a, "hy": b}.EvalBool(cond)
		if err != nil {
			return false
		}
		var want bool
		if b >= 16 {
			want = a != 0
		} else {
			want = a>>(16-b) != 0
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOverflowCondSubexpression reproduces §4.3's observation: the whole
// expression ((width16×height16)×4)/bpp cannot exceed 32 bits for bpp ∈
// {8,16,32}, but the subexpression (width×height)×4 can wrap, and overflow()
// must capture that.
func TestOverflowCondSubexpression(t *testing.T) {
	width := ZExt(32, Var(16, "w16"))
	height := ZExt(32, Var(16, "h16"))
	bpp := ZExt(32, Var(8, "bpp"))
	expr := UDiv(Mul(Mul(width, height), Const(32, 4)), bpp)
	cond := OverflowCond(expr)
	// width = height = 0xFFFF wraps the inner multiply chain.
	got, err := Assignment{"w16": 0xFFFF, "h16": 0xFFFF, "bpp": 8}.EvalBool(cond)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("subexpression overflow not detected")
	}
	// Small values never wrap.
	got, err = Assignment{"w16": 100, "h16": 100, "bpp": 8}.EvalBool(cond)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("false positive overflow for small values")
	}
}

func TestPrintPaperVocabulary(t *testing.T) {
	width := Var(32, "/header/width")
	expr := Mul(And(width, Const(32, 0xFF000000)), ZExt(32, Var(8, "/header/bit_depth")))
	s := expr.String()
	for _, want := range []string{"Mul(32", "BvAnd(32", "HachField(32,'/header/width')", "Constant(0xFF000000)", "ToSize(32"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered expression %q missing %q", s, want)
		}
	}
	b := Ult(width, Const(32, 10)).String()
	if !strings.Contains(b, "Ult(") {
		t.Errorf("bool rendering %q missing Ult", b)
	}
}

func TestVarSet(t *testing.T) {
	x := Var(32, "vs_x")
	y := Var(8, "vs_y")
	f := AndB(Ult(x, Const(32, 5)), Eq(ZExt(32, y), x))
	vars := BoolVars(f)
	if len(vars) != 2 || vars["vs_x"] != x || vars["vs_y"] != y {
		t.Fatalf("vars = %v", vars.Names())
	}
	other := BoolVars(Eq(Add(x, x), Const(32, 1)))
	if !vars.Intersects(other) {
		t.Error("expected shared variable")
	}
	if vars.Intersects(BoolVars(Eq(Var(8, "vs_z"), Const(8, 1)))) {
		t.Error("unexpected shared variable")
	}
}

// TestInternIdentity pins hash-consing: structurally identical terms and
// formulas are one pointer, distinct ones are not. The bit-blaster and
// solver sessions key their caches on these pointers.
func TestInternIdentity(t *testing.T) {
	x := Var(16, "id_x")
	y := Var(16, "id_y")
	if x == y {
		t.Fatal("distinct terms share a pointer")
	}
	if Var(16, "id_x") != x || Add(x, y) != Add(x, y) {
		t.Fatal("structurally identical terms must be one pointer")
	}
	a := Ult(x, y)
	b := Ult(x, y)
	if a != b {
		t.Fatal("structurally identical formulas must be one pointer")
	}
	if True() == False() || True() != True() {
		t.Fatal("boolean constants are not two distinct singletons")
	}
	if a == True() || a == False() || a == Ult(y, x) {
		t.Fatal("formula shares a pointer with a different formula")
	}
}

func TestConjuncts(t *testing.T) {
	x := Var(8, "cj_x")
	a := Ult(x, Const(8, 10))
	b := Ugt(x, Const(8, 2))
	c := Eq(x, Const(8, 5))
	got := Conjuncts(AndB(AndB(a, b), c))
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("Conjuncts = %v", got)
	}
	if got := Conjuncts(a); len(got) != 1 || got[0] != a {
		t.Fatalf("single conjunct: %v", got)
	}
	if got := Conjuncts(True()); len(got) != 0 {
		t.Fatalf("true must have no conjuncts, got %v", got)
	}
	// OrB is a leaf from the conjunction's point of view.
	or := OrB(a, b)
	if got := Conjuncts(AndB(or, c)); len(got) != 2 || got[0] != or {
		t.Fatalf("disjunction split: %v", got)
	}
}
