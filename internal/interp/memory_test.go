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

// guestMemProgs are the block-storage programs, in the order
// FuzzMachineParity numbers them after the applications.
func guestMemProgs(tb testing.TB) []*lang.Program {
	return []*lang.Program{allocLoopProg(tb), lazyCellsProg(tb)}
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
