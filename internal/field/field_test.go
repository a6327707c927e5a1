package field

import (
	"testing"
	"testing/quick"

	"diode/internal/bv"
	"diode/internal/interp"
	"diode/internal/lang"
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

// run executes a one-function guest whose body is stmts on input, reading
// the input through the Symbolic table terms.
func run(t *testing.T, input []byte, terms []*bv.Term, stmts ...lang.Stmt) *interp.Outcome {
	t.Helper()
	p := lang.NewProgram("field-test")
	p.AddFunc(lang.Fn("main", nil, stmts...))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	out := interp.Run(p, input, interp.Options{Symbolic: terms})
	if out.Kind != interp.OutOK {
		t.Fatalf("guest ended %v (%v)", out.Kind, out.Err)
	}
	return out
}

// exprVars returns the free variables of the expression e.
func exprVars(e *bv.Term) bv.VarSet {
	return bv.BoolVars(bv.Eq(e, bv.Const(e.W, 0)))
}

// reassemble is the parser-style 32-bit reassembly of bytes off..off+3, most
// significant first for BE and last for LE.
func reassemble(order Endian, off uint64) lang.Expr {
	b := func(i uint64) lang.Expr { return lang.ZX(32, lang.InAt(off+i)) }
	if order == LittleEndian {
		return lang.BitOr(lang.BitOr(b(0), lang.Shl(b(1), lang.U32(8))),
			lang.BitOr(lang.Shl(b(2), lang.U32(16)), lang.Shl(b(3), lang.U32(24))))
	}
	return lang.BitOr(lang.BitOr(lang.Shl(b(0), lang.U32(24)), lang.Shl(b(1), lang.U32(16))),
		lang.BitOr(lang.Shl(b(2), lang.U32(8)), b(3)))
}

// TestInputTerms pins the table InputTerms builds: each covered byte reads
// as its byte of the field variable in the field's byte order, an uncovered
// byte and a byte past every field read as in[i], unlisted offsets are nil,
// and the table ends at the largest listed offset.
func TestInputTerms(t *testing.T) {
	m := mustMap(t, []Spec{
		{Name: "/be", Offset: 0, Size: 4, Order: BigEndian},
		{Name: "/le", Offset: 4, Size: 2, Order: LittleEndian},
		{Name: "/b", Offset: 8, Size: 1},
	})
	be, le, b := bv.Var(32, "/be"), bv.Var(16, "/le"), bv.Var(8, "/b")
	want := []*bv.Term{
		0:  bv.Extract(31, 24, be),
		3:  bv.Extract(7, 0, be),
		4:  bv.Extract(7, 0, le),
		5:  bv.Extract(15, 8, le),
		6:  bv.Var(8, InputVarName(6)), // between fields
		8:  b,
		12: bv.Var(8, InputVarName(12)), // past every field
	}
	got := m.InputTerms([]int{12, 0, 3, 4, 5, 6, 8})
	if len(got) != len(want) {
		t.Fatalf("table length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("byte %d reads as %v, want %v", i, got[i], want[i])
		}
	}
	if empty := m.InputTerms(nil); empty == nil || len(empty) != 0 {
		t.Errorf("InputTerms(nil) = %#v, want an empty non-nil table", empty)
	}
}

// TestLiftRoundTrip: a symbolic run that reads a field's bytes through
// InputTerms records its reassembly over the field variable alone, and the
// recorded expression evaluates to the field value under a field
// assignment, for both byte orders.
func TestLiftRoundTrip(t *testing.T) {
	for _, order := range []Endian{BigEndian, LittleEndian} {
		m := mustMap(t, []Spec{{Name: "/v", Offset: 4, Size: 4, Order: order}})
		input := make([]byte, 8)
		out := run(t, input, m.InputTerms([]int{4, 5, 6, 7}), lang.AllocAt("buf", "t@1", reassemble(order, 4)))
		lifted := out.Allocs[0].Sym
		if names := exprVars(lifted).Names(); len(names) != 1 || names[0] != "/v" {
			t.Fatalf("order=%v: expression ranges over %v, want [/v]", order, names)
		}
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

// TestLiftLeavesUncoveredBytes: a byte no field covers reads as its own
// per-byte variable (raw-byte mode, §4.4).
func TestLiftLeavesUncoveredBytes(t *testing.T) {
	m := mustMap(t, []Spec{{Name: "/v", Offset: 0, Size: 2, Order: BigEndian}})
	input := make([]byte, 10)
	out := run(t, input, m.InputTerms([]int{0, 9}), // byte 9 is not covered
		lang.AllocAt("buf", "t@1", lang.Add(lang.ZX(32, lang.InAt(9)), lang.ZX(32, lang.InAt(0)))))
	names := exprVars(out.Allocs[0].Sym).Names()
	if len(names) != 2 || names[0] != "/v" || names[1] != InputVarName(9) {
		t.Fatalf("expression ranges over %v, want [/v %s]", names, InputVarName(9))
	}
}

// TestFieldBranchAndSeedAssignment: SeedAssignment binds every variable an
// InputTerms entry can mention, and a branch condition recorded over a
// field's bytes evaluates under it as the seed run decided it.
func TestFieldBranchAndSeedAssignment(t *testing.T) {
	m := mustMap(t, []Spec{{Name: "/w", Offset: 0, Size: 2, Order: BigEndian}})
	input := []byte{0x01, 0x02, 0xFF}
	asn := m.SeedAssignment(input)
	if asn["/w"] != 0x0102 {
		t.Fatalf("/w = %#x", asn["/w"])
	}
	if asn[InputVarName(2)] != 0xFF {
		t.Fatalf("raw byte binding = %#x", asn[InputVarName(2)])
	}
	out := run(t, input, m.InputTerms([]int{0, 1, 2}),
		lang.IfThen("big", lang.Ugt(lang.Shl(lang.ZX(16, lang.InAt(0)), lang.U16(8)), lang.U16(0x0500)),
			lang.Warn("big")),
	)
	if len(out.Branches) != 1 || out.Branches[0].Taken {
		t.Fatalf("branches = %+v, want one not-taken record", out.Branches)
	}
	if vars := bv.BoolVars(out.Branches[0].Cond).Names(); len(vars) != 1 || vars[0] != "/w" {
		t.Fatalf("condition ranges over %v, want [/w]", vars)
	}
	// The record holds the direction taken: ¬(0x0100 > 0x0500).
	got, err := asn.EvalBool(out.Branches[0].Cond)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("seed does not satisfy its own recorded branch condition")
	}
}
