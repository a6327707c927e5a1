package interp

import (
	"slices"
	"testing"

	"diode/internal/bv"
	"diode/internal/field"
	"diode/internal/lang"
)

// byteVars is a Symbolic table naming input bytes 0..n-1 by their raw
// per-byte variables in[i]: what a format with no fields reads as.
func byteVars(n int) []*bv.Term {
	offsets := make([]int, n)
	for i := range offsets {
		offsets[i] = i
	}
	return field.MustMap(nil).InputTerms(offsets)
}

func mustProg(t *testing.T, fns ...*lang.Func) *lang.Program {
	t.Helper()
	p := lang.NewProgram("test")
	for _, f := range fns {
		p.AddFunc(f)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestArithmeticAndVariables(t *testing.T) {
	// x = 7; y = x*6 + 2; alloc(buf, y)
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.U32(7)),
		lang.Let("y", lang.Add(lang.Mul(lang.V("x"), lang.U32(6)), lang.U32(2))),
		lang.AllocAt("buf", "t@1", lang.V("y")),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutOK {
		t.Fatalf("outcome = %v (%v)", out.Kind, out.Err)
	}
	if len(out.Allocs) != 1 || out.Allocs[0].Size != 44 {
		t.Fatalf("allocs = %+v", out.Allocs)
	}
}

func TestWrappingArithmetic(t *testing.T) {
	// 8-bit: 200+100 wraps to 44.
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.Add(lang.U8(200), lang.U8(100))),
		lang.AllocAt("b", "t@1", lang.ZX(32, lang.V("x"))),
	))
	out := Run(p, nil, Options{})
	if out.Allocs[0].Size != 44 {
		t.Fatalf("8-bit wrap: got %d want 44", out.Allocs[0].Size)
	}
}

func TestTaintPropagation(t *testing.T) {
	// Size = in[0]*in[1]; taint must be {0,1}; in[3] unused.
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("a", lang.ZX(32, lang.InAt(0))),
		lang.Let("b", lang.ZX(32, lang.InAt(1))),
		lang.Let("c", lang.ZX(32, lang.InAt(3))), // read but unused in size
		lang.AllocAt("buf", "t@1", lang.Mul(lang.V("a"), lang.V("b"))),
	))
	out := Run(p, []byte{5, 6, 7, 8}, Options{TrackTaint: true})
	if out.Kind != OutOK {
		t.Fatalf("outcome %v", out.Kind)
	}
	ev := out.Allocs[0]
	if ev.Size != 30 {
		t.Fatalf("size = %d", ev.Size)
	}
	got := ev.Taint.Elems()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("taint = %v, want [0 1]", got)
	}
}

func TestSymbolicExpressionExtraction(t *testing.T) {
	// size = (in[0] zext 32) * 4; check the symbolic expression evaluates
	// correctly on a different input.
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "t@1",
			lang.Mul(lang.ZX(32, lang.InAt(0)), lang.U32(4))),
	))
	out := Run(p, []byte{9}, Options{Symbolic: byteVars(1)})
	ev := out.Allocs[0]
	if ev.Sym == nil {
		t.Fatal("no symbolic size recorded")
	}
	v, err := bv.Assignment{"in[0]": 50}.Eval(ev.Sym)
	if err != nil {
		t.Fatal(err)
	}
	if v != 200 {
		t.Fatalf("symbolic eval = %d, want 200", v)
	}
}

func TestBranchRecording(t *testing.T) {
	// One relevant branch (depends on input), one irrelevant (concrete).
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.ZX(32, lang.InAt(0))),
		lang.IfThen("check_x", lang.Ugt(lang.V("x"), lang.U32(10)),
			lang.Abort("too big"),
		),
		lang.IfThen("const_branch", lang.Ugt(lang.U32(5), lang.U32(3)),
			lang.Let("y", lang.U32(1)),
		),
		lang.AllocAt("buf", "t@1", lang.V("x")),
	))
	out := Run(p, []byte{7}, Options{Symbolic: byteVars(1)})
	if out.Kind != OutOK {
		t.Fatalf("outcome %v", out.Kind)
	}
	if len(out.Branches) != 1 {
		t.Fatalf("recorded %d branches, want 1 (only the input-dependent one)", len(out.Branches))
	}
	br := out.Branches[0]
	if br.Label != "check_x" || br.Taken {
		t.Fatalf("branch = %+v", br)
	}
	// The recorded constraint describes the taken (false) direction: ¬(x>10).
	ok, err := bv.Assignment{"in[0]": 7}.EvalBool(br.Cond)
	if err != nil || !ok {
		t.Fatalf("seed must satisfy its own branch constraint: %v %v", ok, err)
	}
	ok, _ = bv.Assignment{"in[0]": 200}.EvalBool(br.Cond)
	if ok {
		t.Fatal("input taking the other direction must violate the constraint")
	}
}

func TestAbortOutcome(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.IfThen("c", lang.Ugt(lang.ZX(32, lang.InAt(0)), lang.U32(10)),
			lang.Abort("rejected by sanity check"),
		),
		lang.AllocAt("b", "t@1", lang.U32(4)),
	))
	out := Run(p, []byte{99}, Options{})
	if out.Kind != OutRejected || out.AbortMsg != "rejected by sanity check" {
		t.Fatalf("outcome = %v msg=%q", out.Kind, out.AbortMsg)
	}
	if len(out.Allocs) != 0 {
		t.Fatal("allocation after abort should not happen")
	}
}

func TestWhileLoopAndMemory(t *testing.T) {
	// Sum input bytes via a loop writing into and reading from a block.
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "t@1", lang.U32(10)),
		lang.Let("i", lang.U32(0)),
		lang.Loop("fill", lang.Ult(lang.V("i"), lang.U32(10)),
			lang.Put(lang.V("buf"), lang.V("i"), lang.Add(lang.V("i"), lang.U32(100))),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.Let("got", lang.Load(lang.V("buf"), lang.U32(9))),
		lang.AllocAt("buf2", "t@2", lang.V("got")),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutOK {
		t.Fatalf("outcome = %v (%v)", out.Kind, out.Err)
	}
	if out.Allocs[1].Size != 109 {
		t.Fatalf("loaded value = %d, want 109", out.Allocs[1].Size)
	}
	if len(out.MemErrs) != 0 {
		t.Fatalf("unexpected memory errors: %+v", out.MemErrs)
	}
}

func TestInvalidWriteInRedZone(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "site@1", lang.U32(8)),
		lang.Put(lang.V("buf"), lang.U32(10), lang.U8(0xAA)), // 2 past the end
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutOK {
		t.Fatalf("red-zone write should not fault immediately: %v", out.Kind)
	}
	if len(out.MemErrs) != 1 || out.MemErrs[0].Kind != InvalidWrite ||
		out.MemErrs[0].Site != "site@1" {
		t.Fatalf("memerrs = %+v", out.MemErrs)
	}
}

func TestSegvFarOutOfBounds(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "site@1", lang.U32(8)),
		lang.Put(lang.V("buf"), lang.U32(100000), lang.U8(1)),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutSegv {
		t.Fatalf("outcome = %v, want SIGSEGV", out.Kind)
	}
	if len(out.MemErrs) != 1 || out.MemErrs[0].Site != "site@1" {
		t.Fatalf("SIGSEGV not attributed to the block's site: %+v", out.MemErrs)
	}
}

func TestSigabrtOnHeapCorruption(t *testing.T) {
	// Clobber the red zone, then allocate again: the allocator detects the
	// corruption (glibc abort analogue).
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "site@1", lang.U32(8)),
		lang.Put(lang.V("buf"), lang.U32(9), lang.U8(1)), // corrupt metadata
		lang.AllocAt("buf2", "site@2", lang.U32(8)),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutAbrt {
		t.Fatalf("outcome = %v, want SIGABRT", out.Kind)
	}
}

func TestInvalidReadAttribution(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "site@1", lang.U32(4)),
		lang.Let("x", lang.Load(lang.V("buf"), lang.U32(6))),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutOK {
		t.Fatalf("outcome %v", out.Kind)
	}
	if len(out.MemErrs) != 1 || out.MemErrs[0].Kind != InvalidRead {
		t.Fatalf("memerrs = %+v", out.MemErrs)
	}
}

func TestProceduresAndReturn(t *testing.T) {
	p := mustProg(t,
		lang.Fn("read_u16_be", []string{"off"},
			lang.Ret(lang.BitOr(
				lang.Shl(lang.ZX(16, lang.In(lang.V("off"))), lang.U16(8)),
				lang.ZX(16, lang.In(lang.Add(lang.V("off"), lang.U32(1)))),
			)),
		),
		lang.Fn("main", nil,
			lang.Let("v", lang.Call("read_u16_be", lang.U32(0))),
			lang.AllocAt("b", "t@1", lang.ZX(32, lang.V("v"))),
		),
	)
	out := Run(p, []byte{0x12, 0x34}, Options{Symbolic: byteVars(2)})
	if out.Kind != OutOK {
		t.Fatalf("outcome %v (%v)", out.Kind, out.Err)
	}
	if out.Allocs[0].Size != 0x1234 {
		t.Fatalf("size = %#x", out.Allocs[0].Size)
	}
	// The symbolic expression must capture the big-endian byte swizzle.
	v, err := bv.Assignment{"in[0]": 0xAB, "in[1]": 0xCD}.Eval(
		bv.ZExt(32, bv.Trunc(32, out.Allocs[0].Sym)))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("symbolic swizzle eval = %#x, want 0xABCD", v)
	}
}

func TestEarlyReturnStopsBlock(t *testing.T) {
	p := mustProg(t,
		lang.Fn("f", nil,
			lang.Ret(lang.U32(1)),
			lang.Abort("unreachable"),
		),
		lang.Fn("main", nil,
			lang.Let("x", lang.Call("f")),
			lang.AllocAt("b", "t@1", lang.V("x")),
		),
	)
	out := Run(p, nil, Options{})
	if out.Kind != OutOK {
		t.Fatalf("outcome %v: return did not stop execution", out.Kind)
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.Loop("forever", lang.BoolLit{V: true},
			lang.Let("x", lang.U32(1)),
		),
	))
	out := Run(p, nil, Options{Fuel: 1000})
	if out.Kind != OutFuel {
		t.Fatalf("outcome = %v, want fuel-exhausted", out.Kind)
	}
}

// TestSymbolicTableRestriction: only the bytes the Symbolic table names by a
// non-nil term read symbolically; a nil entry and a byte past the table's end
// stay concrete (the paper's staging optimization).
func TestSymbolicTableRestriction(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("a", "t@1", lang.ZX(32, lang.InAt(0))),
		lang.AllocAt("b", "t@2", lang.ZX(32, lang.InAt(1))),
		lang.AllocAt("c", "t@3", lang.ZX(32, lang.InAt(2))),
	))
	in := []byte{3, 4, 5}
	x := bv.Var(8, "restrict_x")
	for name, c := range map[string]struct {
		table []*bv.Term
		sym   [3]bool
	}{
		"first":     {[]*bv.Term{x}, [3]bool{true, false, false}},
		"nil-entry": {[]*bv.Term{nil, x}, [3]bool{false, true, false}},
		"empty":     {[]*bv.Term{}, [3]bool{false, false, false}},
	} {
		for engine, out := range map[string]*Outcome{
			"tree":    RunTree(p, in, Options{Symbolic: c.table}),
			"machine": Run(p, in, Options{Symbolic: c.table}),
		} {
			for i, ev := range out.Allocs {
				if (ev.Sym != nil) != c.sym[i] {
					t.Errorf("%s %s: byte %d symbolic = %v, want %v", name, engine, i, ev.Sym != nil, c.sym[i])
				}
				if c.sym[i] && ev.Sym != bv.ZExt(32, x) {
					t.Errorf("%s %s: byte %d read as %s, want the table's term", name, engine, i, ev.Sym)
				}
				// A non-nil table turns taint on even where no byte is
				// symbolic.
				if !slices.Contains(ev.Taint.Elems(), i) {
					t.Errorf("%s %s: byte %d untainted", name, engine, i)
				}
			}
		}
	}
}

func TestSignedComparisonBranch(t *testing.T) {
	// abs-style check: in 32-bit, 0x80000000 is negative.
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.ZX(32, lang.InAt(0))),
		lang.Let("big", lang.Shl(lang.V("x"), lang.U32(24))),
		lang.IfElse("sign", lang.Slt(lang.V("big"), lang.U32(0)),
			lang.Block{lang.AllocAt("a", "neg@1", lang.U32(1))},
			lang.Block{lang.AllocAt("b", "pos@1", lang.U32(2))},
		),
	))
	out := Run(p, []byte{0x80}, Options{})
	if out.Allocs[0].Site != "neg@1" {
		t.Fatalf("signed branch took wrong direction: %+v", out.Allocs)
	}
	out = Run(p, []byte{0x10}, Options{})
	if out.Allocs[0].Site != "pos@1" {
		t.Fatalf("signed branch took wrong direction: %+v", out.Allocs)
	}
}

func TestRuntimeErrorWidthMismatch(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.Add(lang.U8(1), lang.U32(2))),
	))
	out := Run(p, nil, Options{})
	if out.Kind != OutError {
		t.Fatalf("outcome = %v, want runtime-error", out.Kind)
	}
}

func TestWarningsCollected(t *testing.T) {
	p := mustProg(t, lang.Fn("main", nil,
		lang.Warn("suspicious image size"),
		lang.Warn("second warning"),
	))
	out := Run(p, nil, Options{})
	if len(out.Warnings) != 2 || out.Warnings[0] != "suspicious image size" {
		t.Fatalf("warnings = %v", out.Warnings)
	}
}
