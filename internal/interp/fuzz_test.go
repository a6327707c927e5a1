package interp_test

import (
	"fmt"
	"testing"

	"diode/internal/apps"
	"diode/internal/interp"
	"diode/internal/lang"
)

// FuzzMachineParity is the differential fuzz target behind the parity suite:
// a fuzzed (program, input, instrumentation mode) triple is executed by the
// tree-walking oracle and by the direct-threaded compiled Machine, and the
// two Outcomes must be byte-identical — same outcome kind, step count, and
// event streams (dumpOutcome equality, exactly as the deterministic parity
// tests assert). The programs are the benchmark applications followed by
// the block-storage programs of memory_test.go, whose inputs choose block
// sizes and the offsets written and read. Each triple runs twice on one
// Machine so divergence caused by stale recycled storage (frames, blocks,
// event slices) is caught, not just first-run divergence.
//
// Fuel is capped well below the interpreter default so corrupted inputs that
// loop reach the fuel-exhaustion outcome quickly; step-count equality makes
// the cap bite at the same point on both paths, which is itself a parity
// case worth fuzzing.
func FuzzMachineParity(f *testing.F) {
	type target struct {
		name string
		prog *lang.Program
		code *interp.Compiled
	}
	var targets []target
	all := apps.All()
	for i, app := range all {
		targets = append(targets, target{app.Short, app.Program, app.Compiled()})
		f.Add(byte(i), app.Format.Seed, byte(0))
		f.Add(byte(i), app.Format.Seed, byte(2))
	}
	for i, prog := range guestMemProgs(f) {
		targets = append(targets, target{fmt.Sprintf("mem#%d", i), prog, interp.Compile(prog)})
	}
	f.Fuzz(func(t *testing.T, progIdx byte, input []byte, mode byte) {
		tg := targets[int(progIdx)%len(targets)]
		if len(input) > maxInput {
			// Guests never index past their format's reach; oversized inputs
			// only slow the fuzzer down without covering new behavior.
			input = input[:maxInput]
		}
		opts := interp.Options{Fuel: 4_000}
		switch mode % 4 {
		case 1:
			opts.TrackTaint = true
		case 2:
			opts.Symbolic = everyByte
		case 3:
			opts.Symbolic = evenBytes
		}
		m := interp.NewMachine(tg.code)
		for round := 0; round < 2; round++ {
			want := dumpOutcome(interp.RunTree(tg.prog, input, opts))
			m.Reset(input, opts)
			got := dumpOutcome(m.Run())
			if got != want {
				t.Fatalf("%s mode=%d round=%d: compiled outcome diverges from tree-walker\n--- tree:\n%s--- compiled:\n%s",
					tg.name, mode%4, round, want, got)
			}
		}
	})
}
