package cache

import (
	"reflect"
	"testing"

	"diode/internal/field"
	"diode/internal/formats"
	"diode/internal/inputgen"
	"diode/internal/lang"
)

func TestKeyLengthPrefixed(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("part boundaries collide; keys must be length-prefixed")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Error("Key is not deterministic")
	}
	if Key() == Key("") {
		t.Error("zero parts collides with one empty part")
	}
}

// toyProgram builds a minimal finalized guest program. The knobs mutate one
// structural aspect each, so tests can assert which aspects are identity.
func toyProgram(t *testing.T, lit uint64, label string) *lang.Program {
	t.Helper()
	p := lang.NewProgram("toy")
	p.AddFunc(&lang.Func{Name: "main", Body: lang.Block{
		lang.Assign{Var: "x", E: lang.Bin{
			Op: lang.OpMul,
			A:  lang.Cvt{W: 32, A: lang.InByte{Idx: lang.Lit{W: 32, V: 0}}},
			B:  lang.Lit{W: 32, V: lit},
		}},
		lang.If{
			Label: label,
			Cond:  lang.Cmp{Op: lang.CmpUlt, A: lang.VarRef{Name: "x"}, B: lang.Lit{W: 32, V: 100}},
			Then:  lang.Block{lang.Alloc{Var: "p", Site: "toy@1", Size: lang.VarRef{Name: "x"}}},
			Else:  lang.Block{lang.AbortStmt{Msg: "too big"}},
		},
		lang.Return{},
	}})
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func toyFormat(seed []byte, specs []field.Spec, fixups int) *formats.Format {
	f := &formats.Format{Name: "toy", Seed: seed, Fields: field.MustMap(specs)}
	for i := 0; i < fixups; i++ {
		f.Fixups = append(f.Fixups, inputgen.Fixup(func([]byte) {}))
	}
	return f
}

func TestFingerprintStableAcrossInstances(t *testing.T) {
	specs := []field.Spec{{Name: "/hdr/w", Offset: 0, Size: 2, Order: field.BigEndian}}
	a := Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 9}, specs, 1))
	b := Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 9}, specs, 1))
	if a != b {
		t.Errorf("independently built identical content fingerprints differ: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("fingerprint %q is not hex SHA-256", a)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	specs := []field.Spec{{Name: "/hdr/w", Offset: 0, Size: 2, Order: field.BigEndian}}
	base := Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 9}, specs, 1))
	cases := map[string]string{
		"literal change": Fingerprint(toyProgram(t, 4, "check"), toyFormat([]byte{9, 9}, specs, 1)),
		"label change":   Fingerprint(toyProgram(t, 3, "other"), toyFormat([]byte{9, 9}, specs, 1)),
		"seed byte flip": Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 8}, specs, 1)),
		"seed length":    Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 9, 0}, specs, 1)),
		"fixup count":    Fingerprint(toyProgram(t, 3, "check"), toyFormat([]byte{9, 9}, specs, 2)),
		"spec rename": Fingerprint(toyProgram(t, 3, "check"),
			toyFormat([]byte{9, 9}, []field.Spec{{Name: "/hdr/h", Offset: 0, Size: 2, Order: field.BigEndian}}, 1)),
		"spec offset": Fingerprint(toyProgram(t, 3, "check"),
			toyFormat([]byte{9, 9}, []field.Spec{{Name: "/hdr/w", Offset: 2, Size: 2, Order: field.BigEndian}}, 1)),
		"spec order": Fingerprint(toyProgram(t, 3, "check"),
			toyFormat([]byte{9, 9}, []field.Spec{{Name: "/hdr/w", Offset: 0, Size: 2, Order: field.LittleEndian}}, 1)),
		"nil format": Fingerprint(toyProgram(t, 3, "check"), nil),
	}
	seen := map[string]string{base: "base"}
	for name, fp := range cases {
		if fp == base {
			t.Errorf("%s did not change the fingerprint", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	for _, d := range []Stats{
		{Hits: 1}, {Hits: 1}, {Misses: 1}, {Stores: 1},
		{CorruptEntries: 1}, {AnalysisRuns: 1}, {AnalysisHits: 1},
	} {
		c.Add(d)
	}
	got := c.Snapshot()
	want := Stats{Hits: 2, Misses: 1, Stores: 1, CorruptEntries: 1, AnalysisRuns: 1, AnalysisHits: 1}
	if got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
	sum := got.Plus(Stats{Hits: 10, Misses: 5})
	if sum.Hits != 12 || sum.Misses != 6 || sum.Stores != 1 {
		t.Fatalf("Plus = %+v", sum)
	}
	c.Add(Stats{CorruptEntries: 3})
	if s := c.Snapshot(); s.CorruptEntries != 4 {
		t.Fatalf("Add-folded CorruptEntries = %d, want 4", s.CorruptEntries)
	}
}

// TestStatsPlusCoversEveryCounter sets each Stats field to 1 in turn and
// checks Plus carries exactly that field, so a counter added to the struct
// but not to Plus fails here instead of vanishing from merged worker stats.
func TestStatsPlusCoversEveryCounter(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var one Stats
		reflect.ValueOf(&one).Elem().Field(i).SetInt(1)
		want := one
		reflect.ValueOf(&want).Elem().Field(i).SetInt(2)
		if sum := one.Plus(one); sum != want {
			t.Errorf("Stats.Plus drops or misroutes %s: got %+v, want %+v", typ.Field(i).Name, sum, want)
		}
	}
}
