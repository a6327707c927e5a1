package interp_test

// Differential tests pinning the compiled execution layer to the original
// tree-walking interpreter: for every benchmark application and a matrix of
// inputs and instrumentation modes, interp.RunTree (the legacy oracle) and a
// reused interp.Machine must produce byte-identical Outcomes — same outcome
// kind, same step count (fuel parity), same allocation/branch/memcheck event
// sequences with identical symbolic expressions and taint labels.
// TestFuelUnits pins the fuel unit itself, which both sides of the
// differential tests share.

import (
	"fmt"
	"strings"
	"testing"

	"diode/internal/apps"
	"diode/internal/bv"
	"diode/internal/field"
	"diode/internal/formats"
	"diode/internal/interp"
	"diode/internal/lang"
)

// dumpOutcome renders every observable field of an outcome; two outcomes are
// byte-identical iff their dumps are equal.
func dumpOutcome(o *interp.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%v abort=%q steps=%d\n", o.Kind, o.AbortMsg, o.Steps)
	if o.Err != nil {
		fmt.Fprintf(&b, "err=%v\n", o.Err)
	}
	for _, w := range o.Warnings {
		fmt.Fprintf(&b, "warn=%q\n", w)
	}
	for _, ev := range o.Allocs {
		fmt.Fprintf(&b, "alloc site=%s seq=%d size=%d w=%d wrapped=%v mark=%d taint=%v",
			ev.Site, ev.Seq, ev.Size, ev.Width, ev.Wrapped, ev.BranchMark, ev.Taint.Elems())
		if ev.Sym != nil {
			fmt.Fprintf(&b, " sym=%s", ev.Sym)
		}
		b.WriteByte('\n')
	}
	for _, me := range o.MemErrs {
		fmt.Fprintf(&b, "memerr kind=%v site=%s off=%d size=%d\n", me.Kind, me.Site, me.Offset, me.Size)
	}
	for _, br := range o.Branches {
		fmt.Fprintf(&b, "branch label=%s taken=%v cond=%s\n", br.Label, br.Taken, br.Cond)
	}
	return b.String()
}

// parityModes is the instrumentation matrix every input is run under. Fuel is
// capped well below the interpreter default: the seeds finish in a fraction
// of it, corrupted inputs that loop reach the fuel-exhaustion outcome quickly
// (itself a parity case), and step-count equality makes the cap bite at the
// exact same point on both paths. low-fuel's 33 units stop 28 of the 44 app
// (input) pairs mid-parse.
func parityModes() map[string]interp.Options {
	return map[string]interp.Options{
		"plain":          {Fuel: 20_000},
		"taint":          {TrackTaint: true, Fuel: 20_000},
		"symbolic":       {Symbolic: everyByte, Fuel: 20_000},
		"sym-restricted": {Symbolic: evenBytes, Fuel: 20_000},
		"low-fuel":       {Symbolic: everyByte, Fuel: 33},
	}
}

// maxInput bounds the inputs the parity tests and FuzzMachineParity run.
const maxInput = 8192

// everyByte and evenBytes are the Symbolic tables of the symbolic modes:
// every input byte, or the even-offset ones, read as its raw per-byte
// variable in[i] (field.InputVarName), as over a format with no fields.
var everyByte, evenBytes = rawBytes(func(int) bool { return true }), rawBytes(func(i int) bool { return i%2 == 0 })

func rawBytes(keep func(int) bool) []*bv.Term {
	var offsets []int
	for i := 0; i < maxInput; i++ {
		if keep(i) {
			offsets = append(offsets, i)
		}
	}
	return field.MustMap(nil).InputTerms(offsets)
}

func checkParity(t *testing.T, name string, prog *lang.Program, m *interp.Machine, input []byte, opts interp.Options) {
	t.Helper()
	want := dumpOutcome(interp.RunTree(prog, input, opts))
	m.Reset(input, opts)
	got := dumpOutcome(m.Run())
	if got != want {
		t.Errorf("%s: compiled outcome diverges from tree-walker\n--- tree:\n%s--- compiled:\n%s", name, want, got)
	}
}

// parityInputs derives a deterministic input matrix from an application's
// seed: the seed itself, mutations that flip size-relevant bytes, a
// truncation, and garbage — enough to drive each guest down accepting,
// rejecting and erroring paths.
func parityInputs(seed []byte) [][]byte {
	mutate := func(f func(b []byte)) []byte {
		out := append([]byte(nil), seed...)
		f(out)
		return out
	}
	inputs := [][]byte{
		seed,
		nil,
		mutate(func(b []byte) {
			for i := range b {
				b[i] ^= 0xA5 // wholesale corruption: signature checks reject
			}
		}),
		mutate(func(b []byte) {
			// Blow up every byte in the second quarter — typically the header
			// size fields — without touching the signature.
			for i := len(b) / 4; i < len(b)/2; i++ {
				b[i] = 0xFF
			}
		}),
		mutate(func(b []byte) {
			if len(b) > 20 {
				b[len(b)-7] ^= 0x42 // tail corruption: checksums mismatch
			}
		}),
	}
	if len(seed) > 8 {
		inputs = append(inputs, seed[:len(seed)/2]) // truncated file
	}
	return inputs
}

// TestCompiledParityApps runs every registered benchmark application over the
// input × mode matrix on both interpreters, one reused Machine per app.
func TestCompiledParityApps(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Short, func(t *testing.T) {
			m := interp.NewMachine(app.Compiled())
			inputs := parityInputs(app.Format.Seed)
			if app.Short == "gifview" {
				// Multi-frame SGIF: repeated image blocks exercise the
				// repeated-frame field structure through taint and trace.
				multi := formats.SGIFAppendFrame(app.Format.Seed, 3, 1, 33, 21)
				inputs = append(inputs, multi, formats.SGIFAppendFrame(multi, 0, 0, 7, 9))
			}
			for i, input := range inputs {
				for mode, opts := range parityModes() {
					checkParity(t, fmt.Sprintf("%s input#%d mode=%s", app.Short, i, mode), app.Program, m, input, opts)
				}
			}
		})
	}
}

// TestCompiledParityUnits covers the statement/expression/outcome space the
// app sweep may miss: memory errors in and past the red zone, heap-corruption
// aborts, runtime errors, custom input-variable naming, globals, recursion
// and bare returns.
func TestCompiledParityUnits(t *testing.T) {
	progs := map[string]*lang.Program{
		"redzone-write": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(8)),
			lang.Put(lang.V("buf"), lang.U32(10), lang.U8(0xAA)),
		)),
		"segv": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(8)),
			lang.Put(lang.V("buf"), lang.U32(100000), lang.U8(1)),
		)),
		"heap-corruption-abrt": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("a", "t@1", lang.U32(8)),
			lang.Put(lang.V("a"), lang.U32(9), lang.U8(1)),
			lang.AllocAt("b", "t@2", lang.U32(8)),
		)),
		// Two clobbered red zones before the aborting alloc: the abort must
		// be attributed to the *first* clobbered block on both interpreters.
		"double-canary-abrt": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("a", "t@1", lang.U32(8)),
			lang.AllocAt("b", "t@2", lang.U32(8)),
			lang.Put(lang.V("b"), lang.U32(9), lang.U8(1)),
			lang.Put(lang.V("a"), lang.U32(10), lang.U8(1)),
			lang.AllocAt("c", "t@3", lang.U32(8)),
		)),
		"invalid-read": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(4)),
			lang.Let("x", lang.Load(lang.V("buf"), lang.U32(6))),
			lang.AllocAt("b2", "t@2", lang.V("x")),
		)),
		"width-mismatch": mustProg(t, lang.Fn("main", nil,
			lang.Let("x", lang.Add(lang.U8(1), lang.U32(2))),
		)),
		"undefined-var": mustProg(t, lang.Fn("main", nil,
			lang.Let("x", lang.V("never_assigned")),
		)),
		"undefined-global": mustProg(t, lang.Fn("main", nil,
			lang.Let("x", lang.V("g_missing")),
		)),
		"globals-and-calls": mustProg(t,
			lang.Fn("bump", nil,
				lang.Let("g_n", lang.Add(lang.V("g_n"), lang.U32(1))),
				lang.Ret(lang.V("g_n")),
			),
			lang.Fn("main", nil,
				lang.Let("g_n", lang.ZX(32, lang.InAt(0))),
				lang.Do(lang.Call("bump")),
				lang.Let("v", lang.Call("bump")),
				lang.AllocAt("b", "t@1", lang.V("v")),
			),
		),
		"recursion": mustProg(t,
			lang.Fn("fib", []string{"n"},
				lang.IfThen("base", lang.Ult(lang.V("n"), lang.U32(2)),
					lang.Ret(lang.V("n")),
				),
				lang.Ret(lang.Add(
					lang.Call("fib", lang.Sub(lang.V("n"), lang.U32(1))),
					lang.Call("fib", lang.Sub(lang.V("n"), lang.U32(2))),
				)),
			),
			lang.Fn("main", nil,
				lang.AllocAt("b", "t@1", lang.Call("fib", lang.ZX(32, lang.InAt(0)))),
			),
		),
		"bare-return": mustProg(t,
			lang.Fn("noop", nil, lang.RetVoid()),
			lang.Fn("main", nil,
				lang.Let("x", lang.Call("noop")),
				lang.AllocAt("b", "t@1", lang.V("x")),
			),
		),
		"ops-matrix": mustProg(t, lang.Fn("main", nil,
			lang.Let("a", lang.ZX(32, lang.InAt(0))),
			lang.Let("b", lang.ZX(32, lang.InAt(1))),
			lang.Let("x", lang.BitXor(
				lang.UDiv(lang.Mul(lang.V("a"), lang.V("b")), lang.Add(lang.V("b"), lang.U32(1))),
				lang.URem(lang.Shl(lang.V("a"), lang.U32(3)), lang.Add(lang.V("a"), lang.U32(7))))),
			lang.Let("y", lang.BitOr(
				lang.LShr(lang.V("x"), lang.U32(2)),
				lang.AShr(lang.Neg(lang.V("b")), lang.U32(1)))),
			lang.Let("z", lang.SX(64, lang.BitNot(lang.V("y")))),
			lang.IfElse("cmp", lang.Or(
				lang.And(lang.Slt(lang.V("a"), lang.V("b")), lang.Not(lang.Uge(lang.V("x"), lang.V("y")))),
				lang.Sgt(lang.V("z"), lang.U64(100))),
				lang.Block{lang.AllocAt("p", "t@1", lang.V("x"))},
				lang.Block{lang.AllocAt("q", "t@2", lang.V("y"))},
			),
			// "p" is only defined on the then-branch: the else path exercises
			// the undefined-variable runtime error on both interpreters.
			lang.Let("w", lang.Load(lang.V("p"), lang.Len())),
		)),
	}
	inputs := [][]byte{nil, {0}, {7, 3}, {200, 100, 50}, {9, 0xFF}}
	for name, prog := range progs {
		m := interp.NewMachine(interp.Compile(prog))
		for i, input := range inputs {
			for mode, opts := range parityModes() {
				checkParity(t, fmt.Sprintf("%s input#%d mode=%s", name, i, mode), prog, m, input, opts)
			}
		}
	}
}

// TestCompiledParityFusion aims the parity check at the shapes the lowerer
// fuses into superinstructions — bulk memset-style store loops (including
// red-zone crossings, mid-loop segfaults, affine Mul/ZX offsets, and loops
// that run past the dense-cell limit into far storage), read-modify-write
// stores, and undefined operands inside the fused binop/load forms — so a
// fusion that drifts from per-cell/per-step semantics diverges here even if
// the app sweep never hits its bail conditions.
func TestCompiledParityFusion(t *testing.T) {
	progs := map[string]*lang.Program{
		// Canonical memset loop that runs off the allocation into the red
		// zone: cells 0..7 are clean writes, 8..17 clobber the canary — the
		// bulk loop must warn/mark exactly like per-cell stores.
		"memset-redzone": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(8)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.V("i"), lang.U32(18)),
				lang.Put(lang.V("buf"), lang.V("i"), lang.U8(0xAA)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
			lang.AllocAt("next", "t@2", lang.U32(4)),
		)),
		// Input-bounded fill: the trip count comes from the input byte, so
		// fuel exhaustion, clean termination, and canary clobbering are all
		// reachable, and the loop condition is taint/symbolic-carrying.
		"memset-input-bound": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(32)),
			lang.Let("n", lang.ZX(32, lang.InAt(0))),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.V("i"), lang.V("n")),
				lang.Put(lang.V("buf"), lang.V("i"), lang.U8(1)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		)),
		// Affine offsets: Mul-scaled loop variable wrapped in ZX(64, ·) —
		// the scaled-index idiom the matcher accepts — striding far enough
		// to segfault mid-loop, so the bail must not debit the bailing
		// iteration's unit.
		"memset-affine-segv": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(64)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("stride", lang.Ult(lang.V("i"), lang.U32(40000)),
				lang.Put(lang.V("buf"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(8))), lang.U8(2)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		)),
		// A fill that crosses denseLimit (4096 cells): the bulk path must
		// hand far-cell stores the same semantics as the per-cell store.
		"memset-past-dense": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(5000)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.V("i"), lang.U32(4500)),
				lang.Put(lang.V("buf"), lang.V("i"), lang.U8(3)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
			lang.Let("back", lang.Load(lang.V("buf"), lang.U32(4400))),
			lang.AllocAt("sz", "t@2", lang.Add(lang.ZX(32, lang.V("back")), lang.U32(1))),
		)),
		// dillo's png_memset shape: a ZX(64, Mul(i, 64)) stride fill over a
		// block far larger than the dense prefix, so all but the first 64
		// iterations write far cells. Reading a written and an unwritten
		// far cell back afterwards forces the far log to fold.
		"memset-far-stride": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(200000)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.U32(200000)),
				lang.Put(lang.V("buf"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(5)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
			lang.Let("hit", lang.Load(lang.V("buf"), lang.U32(192000))),
			lang.Let("miss", lang.Load(lang.V("buf"), lang.U32(192001))),
			lang.AllocAt("sz", "t@2", lang.Add(lang.ZX(32, lang.V("hit")), lang.ZX(32, lang.V("miss")))),
		)),
		// The same stride run off the end of a far block: offset 200000
		// lands in the red zone (size 199992), the next one segfaults.
		"memset-far-stride-segv": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(199992)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.U32(300000)),
				lang.Put(lang.V("buf"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(5)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		)),
		// Read-modify-write stores (buf[i] = buf[i] + k), which take the
		// generic lowering, plus the load-error path when the offset runs
		// past the block.
		"load-op-store": mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(8)),
			lang.Put(lang.V("buf"), lang.U32(3), lang.U8(40)),
			lang.Put(lang.V("buf"), lang.U32(3), lang.Add(lang.Load(lang.V("buf"), lang.U32(3)), lang.U8(2))),
			lang.Let("off", lang.ZX(32, lang.InAt(0))),
			lang.Put(lang.V("buf"), lang.V("off"), lang.Add(lang.Load(lang.V("buf"), lang.V("off")), lang.U8(1))),
			lang.AllocAt("sz", "t@2", lang.ZX(32, lang.Load(lang.V("buf"), lang.U32(3)))),
		)),
		// Undefined operands inside fused forms: the fused instructions
		// must report the same failing read as the tree-walker.
		"undef-in-fused-bin": mustProg(t, lang.Fn("main", nil,
			lang.Let("a", lang.U32(1)),
			lang.Let("x", lang.Add(lang.V("a"), lang.V("nope"))),
		)),
		"undef-in-loadzx": mustProg(t, lang.Fn("main", nil,
			lang.Let("x", lang.ZX(32, lang.InByte{Idx: lang.Add(lang.V("nope"), lang.U32(1))})),
		)),
	}
	for name, prog := range undefinedReadProgs(t) {
		progs["undef-"+name] = prog
	}

	inputs := [][]byte{nil, {0}, {5}, {40}, {0xFF}}
	for name, prog := range progs {
		m := interp.NewMachine(interp.Compile(prog))
		for i, input := range inputs {
			for mode, opts := range parityModes() {
				checkParity(t, fmt.Sprintf("%s input#%d mode=%s", name, i, mode), prog, m, input, opts)
			}
		}
		// A live, never-closed Cancel channel must not change the outcome.
		never := make(chan struct{})
		checkParity(t, name+" cancel-never-closed", prog, m, []byte{0xFF}, interp.Options{Fuel: 20_000, Cancel: never})
	}

	// One Machine runs an input-sized far fill long, short, long, empty.
	// Cell 128000 is written only by the long runs, so the short and empty
	// runs must read it as zero. Each read-back folds the far log into the
	// block's cells map, and recycling the block clears the map, which keeps
	// the earlier run's entries out.
	reuse := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "t@1", lang.U32(1<<18)),
		lang.Let("n", lang.Mul(lang.ZX(32, lang.InAt(0)), lang.U32(1024))),
		lang.Let("i", lang.U32(0)),
		lang.Loop("fill", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.V("n")),
			lang.Put(lang.V("buf"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(9)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.Let("back", lang.Load(lang.V("buf"), lang.U32(128000))),
		lang.AllocAt("sz", "t@2", lang.Add(lang.ZX(32, lang.V("back")), lang.U32(1))),
	))
	m := interp.NewMachine(interp.Compile(reuse))
	for _, mode := range []string{"plain", "symbolic"} {
		for i, input := range [][]byte{{0xFF}, {5}, {0xFF}, nil} {
			opts := interp.Options{Fuel: 20_000}
			if mode == "symbolic" {
				opts.Symbolic = everyByte
			}
			checkParity(t, fmt.Sprintf("far-reuse run#%d mode=%s", i, mode), reuse, m, input, opts)
		}
	}
}

// undefinedReadProgs puts an undefined variable in each operand position of
// every multi-read fused shape. A fused instruction reads all its leaves
// before reporting the first undefined one, so each shape pins which read
// fails. Each program first runs a three-trip loop that charges four fuel
// units, so a fuel sweep stops some runs before the failing read and some
// at it.
func undefinedReadProgs(t *testing.T) map[string]*lang.Program {
	t.Helper()
	u, a := lang.V("nope"), lang.V("a")
	loadZX := func(x, y lang.Expr) lang.Expr { return lang.ZX(32, lang.InByte{Idx: lang.Add(x, y)}) }
	progs := map[string]*lang.Program{}
	for name, fused := range map[string]lang.Stmt{
		"assign-bin-first":     lang.Let("x", lang.Add(u, a)),
		"assign-bin-second":    lang.Let("x", lang.Add(a, u)),
		"push-bin-first":       lang.AllocAt("b", "t@2", lang.Add(u, lang.U32(1))),
		"push-bin-second":      lang.AllocAt("b", "t@2", lang.Add(a, u)),
		"jcc-first":            lang.IfThen("c", lang.Ult(u, a), lang.Warn("then")),
		"jcc-second":           lang.IfThen("c", lang.Ult(a, u), lang.Warn("then")),
		"store-ptr":            lang.Put(u, a, lang.U8(1)),
		"store-ptr-before-zx":  lang.Put(u, lang.ZX(64, a), lang.U8(1)),
		"store-off":            lang.Put(lang.V("buf"), u, lang.U8(1)),
		"store-zx-off":         lang.Put(lang.V("buf"), lang.ZX(64, u), lang.U8(1)),
		"store-val":            lang.Put(lang.V("buf"), a, u),
		"store-val-after-zx":   lang.Put(lang.V("buf"), lang.ZX(64, a), u),
		"assign-loadzx-first":  lang.Let("x", loadZX(u, a)),
		"assign-loadzx-second": lang.Let("x", loadZX(a, u)),
		"push-loadzx-first":    lang.AllocAt("b", "t@2", loadZX(u, a)),
		"push-loadzx-second":   lang.AllocAt("b", "t@2", loadZX(a, u)),
	} {
		prog := mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(16)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("warm", lang.Ult(lang.V("i"), lang.U32(3)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
			lang.Let("a", lang.ZX(32, lang.InAt(0))),
			lang.Put(lang.V("buf"), lang.V("a"), lang.U8(7)),
			fused,
			lang.Let("after", lang.U32(1)),
		))
		if out := interp.RunTree(prog, []byte{5}, interp.Options{}); out.Err == nil || !strings.Contains(out.Err.Error(), `"nope"`) || out.Steps < 4 {
			t.Fatalf("%s: want the undefined-variable error after the loop's 4 units, got:\n%s", name, dumpOutcome(out))
		}
		progs[name] = prog
	}
	return progs
}

// TestCompiledParityFuelSweep runs a program mixing fused and generic shapes
// (a bulk store loop, fused loads and branches, a generic store and a call) under
// every fuel value up to past its natural unit count, in plain and symbolic
// modes. Exhaustion must bite at the identical point on both interpreters for
// every single cutoff, the bulk loop's per-iteration debit included.
func TestCompiledParityFuelSweep(t *testing.T) {
	prog := mustProg(t,
		lang.Fn("bump", []string{"v"},
			lang.Ret(lang.Add(lang.V("v"), lang.U32(1))),
		),
		lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(16)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("fill", lang.Ult(lang.V("i"), lang.U32(12)),
				lang.Put(lang.V("buf"), lang.V("i"), lang.U8(7)),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
			lang.Let("x", lang.ZX(32, lang.InByte{Idx: lang.Add(lang.ZX(32, lang.InAt(0)), lang.U32(1))})),
			lang.Put(lang.V("buf"), lang.U32(2), lang.Add(lang.Load(lang.V("buf"), lang.U32(2)), lang.U8(1))),
			lang.Let("y", lang.Call("bump", lang.V("x"))),
			lang.IfThen("big", lang.Ugt(lang.V("y"), lang.U32(3)),
				lang.AllocAt("b2", "t@2", lang.V("y")),
			),
		),
	)
	m := interp.NewMachine(interp.Compile(prog))
	input := []byte{1, 9, 5}
	full := interp.RunTree(prog, input, interp.Options{})
	if full.Kind != interp.OutOK || len(full.Allocs) != 2 {
		t.Fatalf("program did not reach its last allocation:\n%s", dumpOutcome(full))
	}
	for _, mode := range []string{"plain", "symbolic"} {
		for fuel := int64(1); fuel <= full.Steps+4; fuel++ {
			opts := interp.Options{Fuel: fuel}
			if mode == "symbolic" {
				opts.Symbolic = everyByte
			}
			checkParity(t, fmt.Sprintf("fuel=%d mode=%s", fuel, mode), prog, m, input, opts)
		}
	}
}

// TestCompiledParityFuelSweepFarCells sweeps every fuel cutoff through a
// stride-64 fill whose block ends 512 cells past the dense prefix, so the
// cutoffs land before, at and after the iteration that crosses from dense
// cells into far cells, then through the far read-back.
func TestCompiledParityFuelSweepFarCells(t *testing.T) {
	const size = 4096 + 512
	prog := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("buf", "t@1", lang.U32(size)),
		lang.Let("i", lang.U32(0)),
		lang.Loop("fill", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.U32(size)),
			lang.Put(lang.V("buf"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(4)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.Let("back", lang.Load(lang.V("buf"), lang.U32(size-64))),
		lang.AllocAt("sz", "t@2", lang.ZX(32, lang.V("back"))),
	))
	m := interp.NewMachine(interp.Compile(prog))
	full := interp.RunTree(prog, nil, interp.Options{})
	if full.Kind != interp.OutOK || len(full.Allocs) != 2 || full.Allocs[1].Size != 4 {
		t.Fatalf("fill did not read its last far cell back:\n%s", dumpOutcome(full))
	}
	for _, mode := range []string{"plain", "symbolic"} {
		for fuel := int64(1); fuel <= full.Steps+8; fuel++ {
			opts := interp.Options{Fuel: fuel}
			if mode == "symbolic" {
				opts.Symbolic = everyByte
			}
			checkParity(t, fmt.Sprintf("fuel=%d mode=%s", fuel, mode), prog, m, nil, opts)
		}
	}
}

// TestCompiledParityFuelSweepUndefined sweeps every fuel cutoff through the
// undefined-read programs, from inside their charged loop to past the
// failing read. opJcc, which also charges, pins that the failing read wins
// over the branch's unit when the budget runs out exactly there.
func TestCompiledParityFuelSweepUndefined(t *testing.T) {
	input := []byte{2, 9}
	for name, prog := range undefinedReadProgs(t) {
		m := interp.NewMachine(interp.Compile(prog))
		full := interp.RunTree(prog, input, interp.Options{})
		for _, mode := range []string{"plain", "symbolic"} {
			for fuel := int64(1); fuel <= full.Steps+2; fuel++ {
				opts := interp.Options{Fuel: fuel}
				if mode == "symbolic" {
					opts.Symbolic = everyByte
				}
				checkParity(t, fmt.Sprintf("%s fuel=%d mode=%s", name, fuel, mode), prog, m, input, opts)
			}
		}
	}
}

// TestFuelUnits pins the fuel unit on both engines, whose differential tests
// cannot catch a miscount they share: straight-line code of any length costs
// nothing, each conditional-branch decision and each call's entry costs one
// unit, and the unit that exhausts the budget ends the run with
// Steps == Fuel.
func TestFuelUnits(t *testing.T) {
	straight := func(n int) *lang.Program {
		body := []lang.Stmt{lang.AllocAt("buf", "t@1", lang.U32(16))}
		for i := uint64(0); i < uint64(n); i++ {
			body = append(body,
				lang.Let("x", lang.Add(lang.ZX(32, lang.InAt(i)), lang.U32(i))),
				lang.Put(lang.V("buf"), lang.U32(i%16), lang.U8(i)),
				lang.Let("y", lang.Mul(lang.ZX(32, lang.Load(lang.V("buf"), lang.U32(i%16))), lang.V("x"))),
			)
		}
		return mustProg(t, lang.Fn("main", nil, body...))
	}
	// whileK runs k iterations of a loop whose shape the lowerer turns into
	// a bulk store loop (fill), a fused loop head (count) or a generic
	// branch (generic).
	whileK := func(shape string, k uint64) *lang.Program {
		cond := lang.Ult(lang.V("i"), lang.U32(k))
		body := []lang.Stmt{lang.Let("i", lang.Add(lang.V("i"), lang.U32(1)))}
		switch shape {
		case "fill":
			body = append([]lang.Stmt{lang.Put(lang.V("buf"), lang.U32(0), lang.U8(1))}, body...)
		case "generic":
			cond = lang.And(cond, lang.Not(lang.Ult(lang.V("i"), lang.U32(0))))
		}
		return mustProg(t, lang.Fn("main", nil,
			lang.AllocAt("buf", "t@1", lang.U32(256)),
			lang.Let("i", lang.U32(0)),
			lang.Loop("w", cond, body...),
		))
	}
	callsC := func(c int) *lang.Program {
		body := []lang.Stmt{lang.Let("x", lang.U32(1))}
		for i := 0; i < c; i++ {
			body = append(body, lang.Let("x", lang.Call("inc", lang.Call("id", lang.V("x")))))
		}
		return mustProg(t,
			lang.Fn("id", []string{"v"}, lang.Ret(lang.V("v"))),
			lang.Fn("inc", []string{"v"}, lang.Ret(lang.Add(lang.V("v"), lang.U32(1)))),
			lang.Fn("main", nil, body...),
		)
	}
	type unitCase struct {
		prog *lang.Program
		want int64
	}
	cases := map[string]unitCase{}
	for _, n := range []int{0, 1, 10, 200} {
		cases[fmt.Sprintf("straight-%d", n)] = unitCase{straight(n), 0}
	}
	for _, shape := range []string{"fill", "count", "generic"} {
		for _, k := range []uint64{0, 1, 7, 200} {
			cases[fmt.Sprintf("%s-while-%d", shape, k)] = unitCase{whileK(shape, k), int64(k) + 1}
		}
	}
	for _, c := range []int{1, 3, 50} {
		cases[fmt.Sprintf("calls-%d", c)] = unitCase{callsC(c), 2 * int64(c)}
	}
	cases["if"] = unitCase{mustProg(t, lang.Fn("main", nil,
		lang.Let("x", lang.ZX(32, lang.InAt(0))),
		lang.IfElse("c", lang.Ult(lang.V("x"), lang.U32(9)), lang.Block{lang.Warn("lt")}, lang.Block{lang.Warn("ge")}),
	)), 1}
	modes := map[string]interp.Options{"plain": {}, "symbolic": {Symbolic: everyByte}}
	for name, c := range cases {
		m := interp.NewMachine(interp.Compile(c.prog))
		for mode, opts := range modes {
			m.Reset([]byte{3}, opts)
			for engine, out := range map[string]*interp.Outcome{
				"tree":    interp.RunTree(c.prog, []byte{3}, opts),
				"machine": m.Run(),
			} {
				if out.Kind != interp.OutOK || out.Steps != c.want {
					t.Errorf("%s %s mode=%s: %v after %d units, want ok after %d", name, engine, mode, out.Kind, out.Steps, c.want)
				}
			}
		}
	}

	burners := map[string]*lang.Program{
		"fill":    whileK("fill", 0xFFFFFFFF),
		"count":   whileK("count", 0xFFFFFFFF),
		"generic": whileK("generic", 0xFFFFFFFF),
		"recursion": mustProg(t,
			lang.Fn("f", nil, lang.Ret(lang.Call("f"))),
			lang.Fn("main", nil, lang.Do(lang.Call("f"))),
		),
	}
	for name, prog := range burners {
		m := interp.NewMachine(interp.Compile(prog))
		for _, fuel := range []int64{1, 2, 3, 1000, 5000} {
			for mode, opts := range modes {
				opts.Fuel = fuel
				m.Reset(nil, opts)
				for engine, out := range map[string]*interp.Outcome{
					"tree":    interp.RunTree(prog, nil, opts),
					"machine": m.Run(),
				} {
					if out.Kind != interp.OutFuel || out.Steps != fuel {
						t.Errorf("burner %s %s mode=%s fuel=%d: %v after %d units, want fuel-exhausted after %d",
							name, engine, mode, fuel, out.Kind, out.Steps, fuel)
					}
				}
			}
		}
	}
}

// TestMachineReuseMatchesFreshRuns pins the Reset contract: a single Machine
// run back-to-back over a mixed input/mode sequence produces the same
// outcomes as a fresh Machine per run.
func TestMachineReuseMatchesFreshRuns(t *testing.T) {
	app, err := apps.ByName("dillo")
	if err != nil {
		t.Fatal(err)
	}
	code := app.Compiled()
	reused := interp.NewMachine(code)
	inputs := parityInputs(app.Format.Seed)
	for round := 0; round < 3; round++ {
		for i, input := range inputs {
			for mode, opts := range parityModes() {
				fresh := interp.NewMachine(code)
				fresh.Reset(input, opts)
				want := dumpOutcome(fresh.Run())
				reused.Reset(input, opts)
				got := dumpOutcome(reused.Run())
				if got != want {
					t.Fatalf("round %d input#%d mode=%s: reused machine diverges\n--- fresh:\n%s--- reused:\n%s",
						round, i, mode, want, got)
				}
			}
		}
	}
}

// TestMachineFarFillAllocFree pins that a warm Machine repeats a far fill
// without allocating: the recycled blocks go back to the same allocations in
// the same order, so the row buffer's block keeps the far-log capacity its
// first run grew instead of handing it to a neighbour.
func TestMachineFarFillAllocFree(t *testing.T) {
	prog := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("names", "t@1", lang.U32(24)),
		lang.AllocAt("row", "t@2", lang.U32(200000)),
		lang.AllocAt("pal", "t@3", lang.U32(7200)),
		lang.AllocAt("img", "t@4", lang.U32(4320)),
		lang.Let("i", lang.U32(0)),
		lang.Loop("fill", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.U32(200000)),
			lang.Put(lang.V("row"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(0)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
	))
	m := interp.NewMachine(interp.Compile(prog))
	allocs := testing.AllocsPerRun(5, func() {
		m.Reset(nil, interp.Options{})
		if out := m.Run(); out.Kind != interp.OutOK {
			t.Fatalf("fill run: %v", out.Kind)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm far fill allocates %v times per run", allocs)
	}
}

// TestMachineRunRequiresReset pins the Reset-then-Run usage contract.
func TestMachineRunRequiresReset(t *testing.T) {
	prog := mustProg(t, lang.Fn("main", nil, lang.AllocAt("b", "t@1", lang.U32(1))))
	m := interp.NewMachine(interp.Compile(prog))
	defer func() {
		if recover() == nil {
			t.Fatal("Run without Reset should panic")
		}
	}()
	m.Reset(nil, interp.Options{})
	m.Run()
	m.Run() // second Run without Reset
}

func mustProg(t testing.TB, fns ...*lang.Func) *lang.Program {
	t.Helper()
	p := lang.NewProgram("parity")
	for _, f := range fns {
		p.AddFunc(f)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}
