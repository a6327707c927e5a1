package discover

import (
	"reflect"
	"strings"
	"testing"

	"diode/internal/interp"
	. "diode/internal/lang"
)

func mustSites(t *testing.T, p *Program) []Site {
	t.Helper()
	sites, err := Sites(p)
	if err != nil {
		t.Fatal(err)
	}
	return sites
}

func names(sites []Site, kind Kind) []string {
	var out []string
	for _, s := range sites {
		if s.Kind == kind {
			out = append(out, s.Name)
		}
	}
	return out
}

// A tainted-size alloc is discovered; a constant-size alloc is not.
func TestAllocTaintFiltering(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("n", InAt(0)),
		AllocAt("a", "hot@1", ZX(32, V("n"))),
		AllocAt("b", "cold@1", U32(64)),
	))
	sites := mustSites(t, p)
	got := names(sites, KindAlloc)
	if !reflect.DeepEqual(got, []string{"hot@1"}) {
		t.Fatalf("alloc sites = %v, want [hot@1]", got)
	}
	if len(names(sites, KindArith)) != 0 {
		t.Fatalf("unexpected arith sites: %v", sites)
	}
	if s := sites[0]; s.Func != "main" || s.Path != "s1" || s.Expr != "zx32(n)" ||
		!reflect.DeepEqual(s.Taint, []string{"n"}) {
		t.Fatalf("site record = %+v", s)
	}
}

// Tainted arithmetic inside an alloc size yields an arith site named from
// its stable node path, alongside the alloc site itself.
func TestArithInAllocSize(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("w", InAt(0)),
		Let("h", InAt(1)),
		AllocAt("buf", "img@1", Mul(V("w"), V("h"))),
	))
	sites := mustSites(t, p)
	arith := names(sites, KindArith)
	if !reflect.DeepEqual(arith, []string{"x:main#s2.size@mul"}) {
		t.Fatalf("arith sites = %v", arith)
	}
	for _, s := range sites {
		if s.Kind == KindArith {
			if s.Expr != "(w * h)" || !reflect.DeepEqual(s.Taint, []string{"h", "w"}) {
				t.Fatalf("arith record = %+v", s)
			}
		}
	}
}

// A tainted add feeding a variable that later sizes an allocation is a
// sink, discovered through the backward sink fixpoint; the same add
// feeding only a warning path would not be.
func TestSinkThroughAssignment(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("n", Add(ZX(32, InAt(0)), U32(16))),
		AllocAt("buf", "b@1", V("n")),
		Let("dead", Add(ZX(32, InAt(1)), U32(1))), // never reaches a sink
	))
	sites := mustSites(t, p)
	arith := names(sites, KindArith)
	if !reflect.DeepEqual(arith, []string{"x:main#s0.e@add"}) {
		t.Fatalf("arith sites = %v", arith)
	}
}

// Memory indices are sinks: tainted arithmetic in Store/Load offsets and
// input-byte indices is discovered even with no allocation involved.
func TestMemoryIndexSinks(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		AllocAt("buf", "b@1", U32(8)),
		Let("i", ZX(32, InAt(0))),
		Put(V("buf"), Add(V("i"), U32(1)), U32(0)),
		Let("v", Load(V("buf"), Mul(V("i"), U32(2)))),
		Let("w", In(Sub(V("i"), U32(1)))),
	))
	arith := names(mustSites(t, p), KindArith)
	want := []string{
		"x:main#s2.off@add",
		"x:main#s3.e.off@mul",
		"x:main#s4.e.idx@sub",
	}
	if !reflect.DeepEqual(arith, want) {
		t.Fatalf("arith sites = %v, want %v", arith, want)
	}
}

// Taint flows interprocedurally: through call arguments into parameters,
// and back out through return values.
func TestInterproceduralTaint(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("scale", []string{"v"},
		Ret(Mul(V("v"), U32(4))),
	))
	p.AddFunc(Fn("main", nil,
		Let("n", ZX(32, InAt(0))),
		AllocAt("buf", "b@1", Call("scale", V("n"))),
	))
	sites := mustSites(t, p)
	if got := names(sites, KindAlloc); !reflect.DeepEqual(got, []string{"b@1"}) {
		t.Fatalf("alloc sites = %v", got)
	}
	// The mul inside scale's return is a sink (its value returns into an
	// alloc size) with a tainted operand (param v).
	if got := names(sites, KindArith); !reflect.DeepEqual(got, []string{"x:scale#s0.ret@mul"}) {
		t.Fatalf("arith sites = %v", got)
	}
	for _, s := range sites {
		if s.Kind == KindAlloc && !reflect.DeepEqual(s.Taint, []string{"scale()"}) {
			t.Fatalf("alloc taint = %v", s.Taint)
		}
	}
}

// Globals (g_ prefix) carry taint across functions without a call edge.
func TestGlobalTaint(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("header", nil,
		Let("g_n", ZX(32, InAt(0))),
		RetVoid(),
	))
	p.AddFunc(Fn("main", nil,
		Do(Call("header")),
		AllocAt("buf", "b@1", V("g_n")),
	))
	sites := mustSites(t, p)
	if got := names(sites, KindAlloc); !reflect.DeepEqual(got, []string{"b@1"}) {
		t.Fatalf("alloc sites = %v", got)
	}
}

// A "g_"-named parameter binds a frame slot, as it does in interp: the
// argument's taint does not reach the global of that name, which the
// callee's body reads.
func TestGlobalNamedParameter(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("alloc", []string{"g_n"},
		AllocAt("buf", "b@1", V("g_n")),
		RetVoid(),
	))
	p.AddFunc(Fn("main", nil,
		Let("g_n", U32(8)),
		Do(Call("alloc", ZX(32, InAt(0)))),
	))
	if got := names(mustSites(t, p), KindAlloc); len(got) != 0 {
		t.Fatalf("alloc sites = %v, want none", got)
	}
	for _, run := range []func(*Program, []byte, interp.Options) *interp.Outcome{interp.Run, interp.RunTree} {
		out := run(p, []byte{200}, interp.Options{TrackTaint: true})
		if len(out.Allocs) != 1 || out.Allocs[0].Size != 8 || !out.Allocs[0].Taint.Empty() {
			t.Fatalf("run allocs = %+v, want one untainted 8-cell block", out.Allocs)
		}
	}
}

// Branch conditions are not sinks, but sink contexts nested inside them
// (input-byte indices) still are.
func TestConditionNotASink(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("n", ZX(32, InAt(0))),
		IfThen("", Ult(Add(V("n"), U32(1)), U32(9)), // add in cond: not a sink
			Let("v", In(Add(V("n"), U32(2)))), // add in in[...]: a sink
		),
	))
	arith := names(mustSites(t, p), KindArith)
	if !reflect.DeepEqual(arith, []string{"x:main#s1.then.s0.e.idx@add"}) {
		t.Fatalf("arith sites = %v", arith)
	}
}

// Discovery is deterministic: repeated runs return identical slices.
func TestDeterministicOrder(t *testing.T) {
	build := func() *Program {
		p := NewProgram("x")
		p.AddFunc(Fn("main", nil,
			Let("w", ZX(32, InAt(0))),
			Let("h", ZX(32, InAt(1))),
			AllocAt("a", "a@1", Mul(V("w"), V("h"))),
			AllocAt("b", "b@1", Add(V("w"), U32(4))),
		))
		return p
	}
	s1 := mustSites(t, build())
	s2 := mustSites(t, build())
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("discovery not deterministic:\n%v\n%v", s1, s2)
	}
}

func TestFormatListing(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("n", ZX(32, InAt(0))),
		AllocAt("buf", "b@1", Add(V("n"), U32(2))),
	))
	out := Format(mustSites(t, p))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("listing = %q", out)
	}
	if !strings.HasPrefix(lines[0], "SITE") || !strings.Contains(lines[0], "EXPR") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "b@1") || !strings.Contains(lines[1], "alloc") ||
		!strings.Contains(lines[1], "(n + 2)") {
		t.Fatalf("alloc row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "@add") || !strings.Contains(lines[2], "arith") {
		t.Fatalf("arith row = %q", lines[2])
	}
}

// TestNestedArithEnumeration is the regression pin for a reported (and
// disproved) enumeration bug: the claim was that only the outermost
// arithmetic node of a sink expression became a site, silently dropping
// nested tainted arithmetic. The descent in emit in fact recurses into both
// operands of every Bin node, so `(w + pad) * h` yields three sites — the
// outer mul and both-depths-of-nesting adds — each with its own stable
// .a/.b path, and each path resolves back to the exact sub-expression via
// the probe transform.
func TestNestedArithEnumeration(t *testing.T) {
	p := NewProgram("x")
	p.AddFunc(Fn("main", nil,
		Let("w", ZX(32, InAt(0))),
		Let("h", ZX(32, InAt(1))),
		Let("pad", ZX(32, InAt(2))),
		// Nested on both sides: ((w + pad) * h) + (h + pad)
		AllocAt("buf", "img@1",
			Add(Mul(Add(V("w"), V("pad")), V("h")), Add(V("h"), V("pad")))),
	))
	sites := mustSites(t, p)
	arith := names(sites, KindArith)
	want := []string{
		"x:main#s3.size@add",     // outermost add
		"x:main#s3.size.a@mul",   // (w + pad) * h
		"x:main#s3.size.a.a@add", // w + pad, nested two levels deep
		"x:main#s3.size.b@add",   // h + pad
	}
	if !reflect.DeepEqual(arith, want) {
		t.Fatalf("arith sites = %v, want %v", arith, want)
	}
	// Every nested site must round-trip through the probe transform: the
	// recorded path resolves to a sub-expression, and the probed program
	// re-finalizes with the probe allocation in place.
	for _, s := range sites {
		if s.Kind != KindArith {
			continue
		}
		probed, err := Probe(p, s)
		if err != nil {
			t.Fatalf("site %s does not probe: %v", s.Name, err)
		}
		found := false
		probed.WalkStmts(func(f *Func, path string, st Stmt) {
			if a, ok := st.(Alloc); ok && a.Site == s.Name {
				found = true
			}
		})
		if !found {
			t.Fatalf("site %s: probe allocation missing from transformed program", s.Name)
		}
	}
}
