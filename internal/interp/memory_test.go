package interp_test

// Tests for the Machine's block storage: a block's dense prefix
// materializes only as the run writes it, so the cells a run never writes
// cost no memory, and every read of them, below the dense/far split or
// past it, on a fresh or a recycled block, matches the tree-walker's.

import (
	"fmt"
	"runtime"
	"testing"

	"diode/internal/interp"
	"diode/internal/lang"
)

// allocLoopProg allocates In(0) blocks of (In(1)+1)<<12 bytes in a loop,
// writes the cell at In(2)*64 of each and reads the one at In(3)*64 back:
// the shape of a probe whose Alloc sits inside a loop.
func allocLoopProg(tb testing.TB) *lang.Program {
	return mustProg(tb, lang.Fn("main", nil,
		lang.Let("n", lang.ZX(32, lang.InAt(0))),
		lang.Let("size", lang.Shl(lang.Add(lang.ZX(32, lang.InAt(1)), lang.U32(1)), lang.U32(12))),
		lang.Let("sum", lang.U32(0)),
		lang.Let("i", lang.U32(0)),
		lang.Loop("blocks", lang.Ult(lang.V("i"), lang.V("n")),
			lang.AllocAt("b", "m@1", lang.V("size")),
			lang.Put(lang.V("b"), lang.Mul(lang.ZX(32, lang.InAt(2)), lang.U32(64)), lang.U8(1)),
			lang.Let("sum", lang.Add(lang.V("sum"), lang.ZX(32, lang.Load(lang.V("b"), lang.Mul(lang.ZX(32, lang.InAt(3)), lang.U32(64)))))),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.AllocAt("out", "m@2", lang.V("sum")),
	))
}

// lazyCellsProg allocates one block of In(0)*64 bytes, fills cells
// [0, In(1)*32) with a bulk store loop, writes the cell at In(2)*32, and
// reads four cells back, the k-th at In(3+2k)*32 - In(4+2k), into the size
// of a second allocation. A block of 4096 bytes or more splits at 4096
// (denseLimit); a smaller one at its size plus the red zone.
func lazyCellsProg(tb testing.TB) *lang.Program {
	at := func(k uint64) lang.Expr {
		return lang.Sub(lang.Mul(lang.ZX(32, lang.InAt(3+2*k)), lang.U32(32)), lang.ZX(32, lang.InAt(4+2*k)))
	}
	read := func(k uint64) lang.Expr { return lang.ZX(32, lang.Load(lang.V("buf"), at(k))) }
	return mustProg(tb, lang.Fn("main", nil,
		lang.AllocAt("buf", "m@1", lang.Mul(lang.ZX(32, lang.InAt(0)), lang.U32(64))),
		lang.Let("n", lang.Mul(lang.ZX(32, lang.InAt(1)), lang.U32(32))),
		lang.Let("i", lang.U32(0)),
		lang.Loop("fill", lang.Ult(lang.V("i"), lang.V("n")),
			lang.Put(lang.V("buf"), lang.V("i"), lang.U8(9)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.Put(lang.V("buf"), lang.Mul(lang.ZX(32, lang.InAt(2)), lang.U32(32)), lang.U8(5)),
		lang.Let("sum", lang.Add(lang.Add(read(0), read(1)), lang.Add(read(2), read(3)))),
		lang.AllocAt("out", "m@2", lang.Add(lang.V("sum"), lang.U32(1))),
	))
}

// farRunsProg fills far cells of one 8192-byte block (split at 4096) in
// one of four shapes, then overwrites part of the fill, makes a lone
// store and reads four cells back into the size of a second allocation.
// Offsets are relative to 4096. Input bytes:
//
//	0 lo, 1 n: the fill covers [lo, lo+n)
//	2 v: the fill's value
//	3 shape: 0 ascending, 1 descending over (lo, lo+n], 2 the strided
//	  cells 3k for k < n, 3 ascending through the generic loop, loading
//	  cell lo after storing cell lo+In(4)
//	5, 6, 7: a bulk refill of In(6) cells from lo+In(5) with value In(7)
//	8: a lone store of v at In(8)
//	9-12: the cells read back
func farRunsProg(tb testing.TB) *lang.Program {
	at := func(e lang.Expr) lang.Expr { return lang.Add(lang.U32(4096), lang.ZX(32, e)) }
	in32 := func(i uint64) lang.Expr { return lang.ZX(32, lang.InAt(i)) }
	read := func(i uint64) lang.Expr { return lang.ZX(32, lang.Load(lang.V("buf"), at(lang.InAt(i)))) }
	shape := func(k uint64) lang.BoolExpr { return lang.Eq(in32(3), lang.U32(k)) }
	return mustProg(tb, lang.Fn("main", nil,
		lang.AllocAt("buf", "m@1", lang.U32(8192)),
		lang.Let("lo", at(lang.InAt(0))),
		lang.Let("n", in32(1)),
		lang.Let("hi", lang.Add(lang.V("lo"), lang.V("n"))),
		lang.Let("v", lang.InAt(2)),
		lang.Let("sum", lang.U32(0)),
		lang.IfElse("asc", shape(0), lang.Block{
			lang.Let("i", lang.V("lo")),
			lang.Loop("up", lang.Ult(lang.V("i"), lang.V("hi")),
				lang.Put(lang.V("buf"), lang.V("i"), lang.V("v")),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		}, lang.Block{lang.IfElse("desc", shape(1), lang.Block{
			lang.Let("i", lang.V("hi")),
			lang.Loop("down", lang.Ugt(lang.V("i"), lang.V("lo")),
				lang.Put(lang.V("buf"), lang.V("i"), lang.V("v")),
				lang.Let("i", lang.Sub(lang.V("i"), lang.U32(1))),
			),
		}, lang.Block{lang.IfElse("stride", shape(2), lang.Block{
			lang.Let("i", lang.U32(0)),
			lang.Loop("strided", lang.Ult(lang.V("i"), lang.V("n")),
				lang.Put(lang.V("buf"), lang.Add(lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(3))), lang.U64(4096)), lang.V("v")),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		}, lang.Block{
			lang.Let("i", lang.V("lo")),
			lang.Loop("probe", lang.Ult(lang.V("i"), lang.V("hi")),
				lang.Put(lang.V("buf"), lang.V("i"), lang.V("v")),
				lang.IfThen("mid", lang.Eq(lang.V("i"), lang.Add(lang.V("lo"), in32(4))),
					lang.Let("sum", lang.Add(lang.V("sum"), lang.ZX(32, lang.Load(lang.V("buf"), lang.V("lo"))))),
				),
				lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
			),
		})})}),
		lang.Let("j", lang.Add(lang.V("lo"), in32(5))),
		lang.Let("jhi", lang.Add(lang.V("j"), in32(6))),
		lang.Let("w", lang.InAt(7)),
		lang.Loop("refill", lang.Ult(lang.V("j"), lang.V("jhi")),
			lang.Put(lang.V("buf"), lang.V("j"), lang.V("w")),
			lang.Let("j", lang.Add(lang.V("j"), lang.U32(1))),
		),
		lang.Put(lang.V("buf"), at(lang.InAt(8)), lang.V("v")),
		lang.Let("sum", lang.Add(lang.V("sum"), lang.Add(lang.Add(read(9), read(10)), lang.Add(read(11), read(12))))),
		lang.AllocAt("out", "m@2", lang.Add(lang.V("sum"), lang.U32(1))),
	))
}

// guestMemProgs are the block-storage programs, in the order
// FuzzMachineParity numbers them after the applications.
func guestMemProgs(tb testing.TB) []*lang.Program {
	return []*lang.Program{allocLoopProg(tb), lazyCellsProg(tb), farRunsProg(tb)}
}

// lazyCellsInput encodes a lazyCellsProg run: block size, fill length and
// write offset, then four reads, each as (hi, lo) for offset hi*32 - lo.
func lazyCellsInput(size, fill, write byte, reads ...[2]byte) []byte {
	in := []byte{size, fill, write}
	for _, r := range reads {
		in = append(in, r[0], r[1])
	}
	return in
}

// lazyCellsRuns is a run sequence for one reused Machine. Block 80 is
// 5120 bytes, so it splits at 4096 with 1024 far cells before its red
// zone. The first run's write at 640 materializes 1024 cells; its reads
// hit a never-written materialized cell, the last materialized one, the
// first past the edge and the last dense one. The next two read at and
// past the split, after a far write and after a bulk fill that crosses the
// split. The last three allocate blocks smaller than the recycled one,
// whose dense prefix, 4096 cells long and stamped by the fill, is longer
// than the new request: their red-zone reads must come back zero, and a
// read past the red zone segfaults.
var lazyCellsRuns = [][]byte{
	lazyCellsInput(80, 0, 20, [2]byte{1, 27}, [2]byte{32, 1}, [2]byte{32, 0}, [2]byte{128, 1}),
	lazyCellsInput(80, 0, 129, [2]byte{128, 1}, [2]byte{128, 0}, [2]byte{129, 0}, [2]byte{129, 31}),
	lazyCellsInput(80, 130, 0, [2]byte{128, 1}, [2]byte{128, 0}, [2]byte{156, 0}, [2]byte{130, 0}),
	lazyCellsInput(1, 0, 0, [2]byte{3, 30}, [2]byte{4, 1}, [2]byte{2, 0}, [2]byte{0, 0}),
	lazyCellsInput(0, 1, 1, [2]byte{1, 0}, [2]byte{2, 1}, [2]byte{1, 1}, [2]byte{0, 0}),
	lazyCellsInput(1, 0, 0, [2]byte{2, 0}, [2]byte{4, 0}, [2]byte{0, 0}, [2]byte{0, 0}),
}

// TestMachineBlockBytes pins that a block's storage follows the cells a
// run writes: a plain run on a fresh Machine that allocates 64 blocks of
// 1 MiB and writes one cell of each allocates at most 4 KiB per block. An
// eager 4096-cell dense prefix took 144 KiB per block, 9.5 MB in all.
func TestMachineBlockBytes(t *testing.T) {
	m := interp.NewMachine(interp.Compile(allocLoopProg(t)))
	input := []byte{64, 255, 0, 0}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Reset(input, interp.Options{})
	out := m.Run()
	runtime.ReadMemStats(&after)
	if out.Kind != interp.OutOK || len(out.Allocs) != 65 || out.Allocs[0].Size != 1<<20 {
		t.Fatalf("run did not allocate 64 blocks of 1 MiB:\n%s", dumpOutcome(out))
	}
	const limit = 64 * 4096
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("64 one-cell blocks allocated %d bytes", got)
	if got > limit {
		t.Fatalf("64 one-cell blocks allocated %d bytes, want at most %d", got, limit)
	}
}

// TestCompiledParityLazyCells runs the lazy-cell sequence on one reused
// Machine under every instrumentation mode, and the allocation loop at a
// few shapes, against the tree-walker.
func TestCompiledParityLazyCells(t *testing.T) {
	lazy, loop := lazyCellsProg(t), allocLoopProg(t)
	for name, opts := range parityModes() {
		m := interp.NewMachine(interp.Compile(lazy))
		for round := 0; round < 2; round++ {
			for i, input := range lazyCellsRuns {
				checkParity(t, fmt.Sprintf("lazy-cells %s round=%d run=%d", name, round, i), lazy, m, input, opts)
			}
		}
		m = interp.NewMachine(interp.Compile(loop))
		for _, input := range [][]byte{{64, 255, 0, 0}, {3, 0, 60, 60}, {70, 1, 0, 65}, {2, 0, 65, 64}} {
			checkParity(t, fmt.Sprintf("alloc-loop %s input=%v", name, input), loop, m, input, opts)
		}
	}
}

// TestCompiledParityFuelSweepLazyCells sweeps every fuel cutoff through a
// 64-cell bulk fill, whose stores grow the dense prefix twice, followed by
// a far write and reads below the materialized edge, past it, and on both
// sides of the split. One Machine runs every cutoff, so each run recycles
// the block the last one grew.
func TestCompiledParityFuelSweepLazyCells(t *testing.T) {
	prog := lazyCellsProg(t)
	input := lazyCellsInput(80, 2, 129, [2]byte{2, 1}, [2]byte{2, 0}, [2]byte{128, 1}, [2]byte{129, 0})
	full := interp.RunTree(prog, input, interp.Options{})
	if full.Kind != interp.OutOK || len(full.Allocs) != 2 || full.Allocs[1].Size != 15 {
		t.Fatalf("run did not read its fill and far write back:\n%s", dumpOutcome(full))
	}
	m := interp.NewMachine(interp.Compile(prog))
	for _, mode := range []string{"plain", "symbolic"} {
		for fuel := int64(1); fuel <= full.Steps+2; fuel++ {
			opts := interp.Options{Fuel: fuel}
			if mode == "symbolic" {
				opts.Symbolic = everyByte
			}
			checkParity(t, fmt.Sprintf("fuel=%d mode=%s", fuel, mode), prog, m, input, opts)
		}
	}
}

// farRunsCases are farRunsProg runs, one per shape of far-write run; the
// fuzz corpus holds each as a mem-far-runs-* seed.
var farRunsCases = []struct {
	name  string
	input []byte
}{
	// A lone store at 50 continues the ascending run; the reads hit
	// before it, its ends and the lone store.
	{"ascending", []byte{10, 40, 9, 0, 0, 0, 0, 0, 50, 9, 10, 49, 50}},
	// Descending over 50..11; the lone store at 10 continues the run.
	{"descending", []byte{10, 40, 9, 1, 0, 0, 0, 0, 10, 10, 11, 50, 51}},
	// Cells 0, 3, ..., 87; the lone store at 90 continues the stride.
	{"strided", []byte{0, 30, 9, 2, 0, 0, 0, 0, 90, 87, 88, 90, 93}},
	// A refill of 7s over 40..49 continues the offsets of a fill of 9s
	// over 0..39 with another value.
	{"value-change", []byte{0, 40, 9, 0, 0, 40, 10, 7, 50, 39, 40, 49, 50}},
	// A refill of 7s over 20..29 overwrites the middle of the 9s, and the
	// lone store at 200 starts a run of its own.
	{"overwrite-middle", []byte{0, 60, 9, 0, 0, 20, 10, 7, 200, 19, 20, 29, 30}},
	// A refill of 9s over 20..29 continues a fill of 9s over 0..19.
	{"refill-continues", []byte{0, 20, 9, 0, 0, 20, 10, 9, 30, 19, 20, 29, 31}},
	// The generic loop loads cell 5 after storing cell 30 of its fill,
	// and the reads after the loop see the rest of the fill.
	{"load-mid-run", []byte{5, 50, 9, 3, 25, 0, 0, 0, 55, 5, 29, 31, 54}},
}

// TestCompiledParityFuelSweepFarRuns runs every far-write run shape at
// every fuel cutoff on one reused Machine, in plain mode, where far writes
// are logged as runs, and in symbolic mode, against the tree-walker.
func TestCompiledParityFuelSweepFarRuns(t *testing.T) {
	prog := farRunsProg(t)
	m := interp.NewMachine(interp.Compile(prog))
	for _, tc := range farRunsCases {
		full := interp.RunTree(prog, tc.input, interp.Options{})
		if full.Kind != interp.OutOK || len(full.Allocs) != 2 || full.Allocs[1].Size < 2 {
			t.Fatalf("%s: run did not read its writes back:\n%s", tc.name, dumpOutcome(full))
		}
		for _, mode := range []string{"plain", "symbolic"} {
			for fuel := int64(1); fuel <= full.Steps+2; fuel++ {
				opts := interp.Options{Fuel: fuel}
				if mode == "symbolic" {
					opts.Symbolic = everyByte
				}
				checkParity(t, fmt.Sprintf("%s fuel=%d mode=%s", tc.name, fuel, mode), prog, m, tc.input, opts)
			}
		}
	}
}

// TestMachineFarRunBytes pins that a far fill is logged as a run: a plain
// run on a fresh Machine that fills 195,904 far cells of one block, one
// bulk loop, allocates at most 64 KiB. Logged one entry per write, the
// fill allocated about 28 MB as the log grew.
func TestMachineFarRunBytes(t *testing.T) {
	prog := mustProg(t, lang.Fn("main", nil,
		lang.AllocAt("row", "t@1", lang.U32(200000)),
		lang.Let("i", lang.U32(4096)),
		lang.Loop("fill", lang.Ult(lang.V("i"), lang.U32(200000)),
			lang.Put(lang.V("row"), lang.V("i"), lang.U8(1)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
	))
	m := interp.NewMachine(interp.Compile(prog))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Reset(nil, interp.Options{})
	out := m.Run()
	runtime.ReadMemStats(&after)
	if out.Kind != interp.OutOK || out.Steps < 195_904 {
		t.Fatalf("run did not fill the row:\n%s", dumpOutcome(out))
	}
	const limit = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("a far fill allocated %d bytes, want at most %d", got, limit)
	}
}
