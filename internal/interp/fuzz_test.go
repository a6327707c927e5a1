package interp_test

import (
	"testing"

	"diode/internal/apps"
	"diode/internal/interp"
)

// FuzzMachineParity is the differential fuzz target behind the parity suite:
// a fuzzed (application, input, instrumentation mode) triple is executed by
// the tree-walking oracle and by the direct-threaded compiled Machine, and
// the two Outcomes must be byte-identical — same outcome kind, step count,
// and event streams (dumpOutcome equality, exactly as the deterministic
// parity tests assert). Each triple runs twice on one Machine so divergence
// caused by stale recycled storage (frames, blocks, event slices) is caught,
// not just first-run divergence.
//
// Fuel is capped well below the interpreter default so corrupted inputs that
// loop reach the fuel-exhaustion outcome quickly; step-count equality makes
// the cap bite at the same point on both paths, which is itself a parity
// case worth fuzzing.
func FuzzMachineParity(f *testing.F) {
	all := apps.All()
	for i, app := range all {
		f.Add(byte(i), app.Format.Seed, byte(0))
		f.Add(byte(i), app.Format.Seed, byte(2))
	}
	f.Fuzz(func(t *testing.T, appIdx byte, input []byte, mode byte) {
		app := all[int(appIdx)%len(all)]
		if len(input) > 8192 {
			// Guests never index past their format's reach; oversized inputs
			// only slow the fuzzer down without covering new behavior.
			input = input[:8192]
		}
		opts := interp.Options{Fuel: 4_000}
		switch mode % 4 {
		case 1:
			opts.TrackTaint = true
		case 2:
			opts.TrackSymbolic = true
		case 3:
			opts.TrackSymbolic = true
			opts.SymbolicBytes = func(i int) bool { return i%2 == 0 }
		}
		m := interp.NewMachine(app.Compiled())
		for round := 0; round < 2; round++ {
			want := dumpOutcome(interp.RunTree(app.Program, input, opts))
			m.Reset(input, opts)
			got := dumpOutcome(m.Run())
			if got != want {
				t.Fatalf("%s mode=%d round=%d: compiled outcome diverges from tree-walker\n--- tree:\n%s--- compiled:\n%s",
					app.Short, mode%4, round, want, got)
			}
		}
	})
}
