package lang

import (
	"slices"
	"testing"
)

func TestFinalizeRequiresMain(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("helper", nil, RetVoid()))
	if err := p.Finalize(); err == nil {
		t.Fatal("program without main finalized")
	}
}

func TestFinalizeAssignsLabels(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		IfThen("", Eq(U32(1), U32(1)), Let("a", U32(1))),
		Loop("", Ult(V("a"), U32(3)), Let("a", Add(V("a"), U32(1)))),
	))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	main := p.Funcs["main"]
	ifStmt := main.Body[0].(If)
	loopStmt := main.Body[1].(While)
	if ifStmt.Label == "" || loopStmt.Label == "" {
		t.Fatal("labels not assigned")
	}
	if ifStmt.Label == loopStmt.Label {
		t.Fatal("labels not unique")
	}
}

func TestFinalizeRejectsDuplicateSites(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		AllocAt("a", "s@1", U32(4)),
		AllocAt("b", "s@1", U32(4)),
	))
	if err := p.Finalize(); err == nil {
		t.Fatal("duplicate allocation site accepted")
	}
}

func TestFinalizeRejectsUnknownCall(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil, Do(Call("nope"))))
	if err := p.Finalize(); err == nil {
		t.Fatal("call to undefined function accepted")
	}
}

func TestFinalizeRejectsArityMismatch(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("f", []string{"a", "b"}, RetVoid()))
	p.AddFunc(Fn("main", nil, Do(Call("f", U32(1)))))
	if err := p.Finalize(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestFinalizeAutoNamesMissingSite(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("n", InAt(0)),
		IfThen("", Ult(V("n"), U32(9)),
			Alloc{Var: "a", Size: V("n")},
		),
	))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	want := "x:main#s1.then.s0"
	if sites := allocSites(p); len(sites) != 1 || sites[0] != want {
		t.Fatalf("sites = %v, want [%s]", sites, want)
	}
	// A second program with the same shape synthesizes the same name.
	q := NewProgram("x")
	q.AddFunc(Fn("main", nil,
		Let("n", InAt(0)),
		IfThen("", Ult(V("n"), U32(9)),
			Alloc{Var: "a", Size: V("n")},
		),
	))
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	if sites := allocSites(q); sites[0] != want {
		t.Fatalf("auto-naming not deterministic: %v", sites)
	}
}

func TestAllocSitesTraversalOrder(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("zfirst", []string{"n"},
		AllocAt("a", "z@1", V("n")),
		RetVoid(),
	))
	p.AddFunc(Fn("main", nil,
		Let("n", InAt(0)),
		AllocAt("b", "m@1", V("n")),
		Do(Call("zfirst", V("n"))),
	))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Functions are walked sorted by name: main before zfirst.
	var got []string
	p.WalkStmts(func(f *Func, path string, s Stmt) {
		if a, ok := s.(Alloc); ok {
			got = append(got, a.Site+" "+f.Name+" "+path)
		}
	})
	want := []string{"m@1 main s1", "z@1 zfirst s0"}
	if !slices.Equal(got, want) {
		t.Fatalf("alloc sites = %q, want %q", got, want)
	}
}

// allocSites lists the site names of p's Alloc statements in WalkStmts
// order.
func allocSites(p *Program) []string {
	var out []string
	p.WalkStmts(func(_ *Func, _ string, s Stmt) {
		if a, ok := s.(Alloc); ok {
			out = append(out, a.Site)
		}
	})
	return out
}

func TestWalkStmtsPaths(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("a", U32(1)),
		IfElse("", Eq(V("a"), U32(1)),
			Block{Let("b", U32(2))},
			Block{Loop("", Ult(V("a"), U32(3)), Let("a", Add(V("a"), U32(1))))},
		),
	))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	var paths []string
	p.WalkStmts(func(f *Func, path string, s Stmt) {
		paths = append(paths, path)
	})
	want := []string{"s0", "s1", "s1.then.s0", "s1.else.s0", "s1.else.s0.body.s0"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("path %d = %q, want %q", i, paths[i], want[i])
		}
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Mul(V("g_rowbytes"), V("g_height")), "(g_rowbytes * g_height)"},
		{Add(Mul(V("ct"), U32(4)), U32(16)), "((ct * 4) + 16)"},
		{ZX(32, In(Add(V("off"), U32(3)))), "zx32(in[(off + 3)])"},
		{SX(16, V("v")), "sx16(v)"},
		{Load(V("buf"), V("i")), "buf[i]"},
		{Call("f", V("a"), U32(2)), "f(a, 2)"},
		{Neg(V("x")), "-(x)"},
		{BitNot(V("x")), "~(x)"},
		{LShr(V("x"), U32(2)), "(x >>u 2)"},
		{Len(), "len"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil, AllocAt("a", "s@1", U32(4))))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatalf("second finalize: %v", err)
	}
}

func TestFinalizeResolvesSlots(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("f", []string{"a", "g_p", "b"},
		Let("c", Add(V("b"), V("a"))),
		IfThen("", Ult(V("d0"), V("g_p")), Let("g_q", V("c"))),
		Loop("", Ult(V("e"), U32(3)), AllocAt("buf", "f@1", V("e"))),
		Ret(V("g_p")),
	))
	p.AddFunc(Fn("main", nil,
		Let("g_q", U32(1)),
		Let("x", Call("f", V("g_q"), U32(2), V("x0"))),
	))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	f, main := p.Funcs["f"], p.Funcs["main"]
	// Parameters take slots 0..n-1, a "g_" one included; other locals
	// follow at first occurrence, an assignment's target first.
	wantLocals := []string{"a", "g_p", "b", "c", "d0", "e", "buf"}
	if got := f.Locals(); !slices.Equal(got, wantLocals) {
		t.Fatalf("f locals = %q, want %q", got, wantLocals)
	}
	if got, want := main.Locals(), []string{"x", "x0"}; !slices.Equal(got, want) {
		t.Fatalf("main locals = %q, want %q", got, want)
	}
	// Globals are numbered program-wide, functions sorted by name: f's
	// reference to g_p comes first.
	if got, want := p.Globals(), []string{"g_p", "g_q"}; !slices.Equal(got, want) {
		t.Fatalf("globals = %q, want %q", got, want)
	}
	for _, c := range []struct {
		f      *Func
		name   string
		slot   int
		global bool
	}{
		{f, "a", 0, false},
		{f, "b", 2, false},
		{f, "buf", 6, false},
		{f, "g_p", 0, true}, // the body's reads of the parameter's name see the global
		{f, "g_q", 1, true},
		{main, "g_q", 1, true},
		{main, "x0", 1, false},
	} {
		slot, global := c.f.Slot(c.name)
		if slot != c.slot || global != c.global {
			t.Errorf("%s.Slot(%q) = %d, %v; want %d, %v", c.f.Name, c.name, slot, global, c.slot, c.global)
		}
	}

	// A second Finalize keeps the resolution.
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := f.Locals(); !slices.Equal(got, wantLocals) {
		t.Fatalf("locals after second Finalize = %q", got)
	}

	// A clone edited the way discover.Probe edits one resolves the
	// inserted statement's new local when it is finalized.
	q := p.Clone()
	qf := q.Funcs["f"]
	qf.Body = append(Block{Let("t", Mul(V("a"), V("b")))}, qf.Body...)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := qf.Locals(), append([]string{"a", "g_p", "b", "t"}, wantLocals[3:]...); !slices.Equal(got, want) {
		t.Fatalf("clone locals = %q, want %q", got, want)
	}
	if slot, global := qf.Slot("t"); slot != 3 || global {
		t.Fatalf("clone Slot(t) = %d, %v; want 3, false", slot, global)
	}
	if got := f.Locals(); !slices.Equal(got, wantLocals) {
		t.Fatalf("finalizing the clone changed the original: %q", got)
	}
}

func TestSlotPanicsBeforeFinalize(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil, Let("a", U32(1))))
	defer func() {
		if recover() == nil {
			t.Fatal("Slot on an unfinalized program did not panic")
		}
	}()
	p.Funcs["main"].Slot("a")
}
