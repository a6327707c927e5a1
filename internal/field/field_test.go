package field

import (
	"testing"
	"testing/quick"

	"diode/internal/bv"
)

func mustMap(t *testing.T, specs []Spec) *Map {
	t.Helper()
	m, err := NewMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOverlapRejected(t *testing.T) {
	_, err := NewMap([]Spec{
		{Name: "/a", Offset: 0, Size: 4},
		{Name: "/b", Offset: 2, Size: 4},
	})
	if err == nil {
		t.Fatal("overlapping fields accepted")
	}
}

func TestBadSizeRejected(t *testing.T) {
	_, err := NewMap([]Spec{{Name: "/a", Offset: 0, Size: 3}})
	if err == nil {
		t.Fatal("3-byte field accepted")
	}
}

// TestWidthDefendsInvalidSizes: a directly constructed Spec with an invalid
// size must report width 0 rather than an overflowed uint8 (size 32 used to
// wrap to width 0 by accident while size 33 produced garbage width 8).
func TestWidthDefendsInvalidSizes(t *testing.T) {
	for size, want := range map[int]uint8{
		1: 8, 2: 16, 4: 32, 8: 64, // supported sizes
		0: 0, 3: 0, 16: 0, 32: 0, 33: 0, -1: 0, // invalid sizes all report 0
	} {
		if got := (Spec{Name: "/x", Size: size}).Width(); got != want {
			t.Errorf("Spec{Size: %d}.Width() = %d, want %d", size, got, want)
		}
	}
}

func TestParseInputVar(t *testing.T) {
	good := map[string]int{"in[0]": 0, "in[7]": 7, "in[42]": 42, "in[1073741824]": 1 << 30}
	for name, want := range good {
		if off, ok := ParseInputVar(name); !ok || off != want {
			t.Errorf("ParseInputVar(%q) = %d,%v; want %d,true", name, off, ok, want)
		}
	}
	bad := []string{"", "in", "in[]", "in[3", "in3]", "in[3]x", "in[03]", "in[+3]", "in[-3]",
		"in[3.5]", "xin[3]", "IN[3]", "in[99999999999999999999]", "in[[3]]",
		// Values just past the 2^30 cap, including ones whose 32-bit
		// accumulation would wrap back into range.
		"in[1073741825]", "in[4294967296]", "in[18446744073709551617]"}
	for _, name := range bad {
		if off, ok := ParseInputVar(name); ok {
			t.Errorf("ParseInputVar(%q) accepted as offset %d", name, off)
		}
	}
	// Round trip with the canonical producer.
	for _, off := range []int{0, 1, 9, 10, 255, 100000} {
		got, ok := ParseInputVar(InputVarName(off))
		if !ok || got != off {
			t.Errorf("round trip of offset %d failed: %d,%v", off, got, ok)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, order := range []Endian{BigEndian, LittleEndian} {
		for _, size := range []int{1, 2, 4, 8} {
			s := Spec{Name: "/f", Offset: 3, Size: size, Order: order}
			f := func(v uint64) bool {
				buf := make([]byte, 16)
				v &= bv.Mask(uint8(size * 8))
				s.Write(buf, v)
				return s.Read(buf) == v
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("order=%v size=%d: %v", order, size, err)
			}
		}
	}
}

// TestLiftRoundTrip: lifting per-byte reads of a field and evaluating under a
// field assignment must reproduce the field value — for both byte orders.
func TestLiftRoundTrip(t *testing.T) {
	for _, order := range []Endian{BigEndian, LittleEndian} {
		m := mustMap(t, []Spec{{Name: "/v", Offset: 4, Size: 4, Order: order}})
		// Parser-style reassembly of the 4 bytes (most significant first for
		// BE, last for LE).
		b := func(i int) *bv.Term { return bv.ZExt(32, bv.Var(8, InputVarName(i))) }
		var expr *bv.Term
		if order == BigEndian {
			expr = bv.Or(bv.Or(bv.Shl(b(4), bv.Const(32, 24)), bv.Shl(b(5), bv.Const(32, 16))),
				bv.Or(bv.Shl(b(6), bv.Const(32, 8)), b(7)))
		} else {
			expr = bv.Or(bv.Or(b(4), bv.Shl(b(5), bv.Const(32, 8))),
				bv.Or(bv.Shl(b(6), bv.Const(32, 16)), bv.Shl(b(7), bv.Const(32, 24))))
		}
		lifted := m.LiftTerm(expr)
		f := func(v uint64) bool {
			v &= 0xFFFFFFFF
			got, err := bv.Assignment{"/v": v}.Eval(lifted)
			return err == nil && got == v
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("order=%v: %v", order, err)
		}
	}
}

func TestLiftLeavesUncoveredBytes(t *testing.T) {
	m := mustMap(t, []Spec{{Name: "/v", Offset: 0, Size: 2, Order: BigEndian}})
	raw := bv.Var(8, InputVarName(9)) // byte 9 is not covered
	lifted := m.LiftTerm(bv.Add(raw, bv.Const(8, 1)))
	vars := bv.TermVars(lifted)
	if _, ok := vars[InputVarName(9)]; !ok {
		t.Fatalf("uncovered byte variable rewritten: %v", vars.Names())
	}
}

func TestLiftBoolAndSeedAssignment(t *testing.T) {
	m := mustMap(t, []Spec{{Name: "/w", Offset: 0, Size: 2, Order: BigEndian}})
	input := []byte{0x01, 0x02, 0xFF}
	asn := m.SeedAssignment(input)
	if asn["/w"] != 0x0102 {
		t.Fatalf("/w = %#x", asn["/w"])
	}
	if asn[InputVarName(2)] != 0xFF {
		t.Fatalf("raw byte binding = %#x", asn[InputVarName(2)])
	}
	// A condition over the field's bytes lifts and evaluates consistently.
	b0 := bv.ZExt(16, bv.Var(8, InputVarName(0)))
	cond := bv.Ugt(bv.Shl(b0, bv.Const(16, 8)), bv.Const(16, 0x0500))
	lifted := m.LiftBool(cond)
	got, err := asn.EvalBool(lifted)
	if err != nil {
		t.Fatal(err)
	}
	if got { // 0x0100 > 0x0500 is false
		t.Fatal("lifted condition evaluated incorrectly")
	}
}
