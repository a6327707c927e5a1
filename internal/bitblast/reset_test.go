package bitblast_test

import (
	"context"
	"slices"
	"testing"

	"diode/internal/apps"
	"diode/internal/bitblast"
	"diode/internal/bv"
	"diode/internal/core"
	"diode/internal/sat"
)

// TestResetEncodesLikeNew encodes every target constraint β of the paper
// and extended applications twice: on a fresh solver and blaster, and on a
// pair Reset after encoding and solving the previous β (the first after
// the largest one). Both must create the same variables, give every input
// variable the same literals, and run a budgeted solve to the same result,
// counters and model. The solve walks the clause database in the order the
// blaster added it, so a change in the clause stream moves its counters.
func TestResetEncodesLikeNew(t *testing.T) {
	var betas []*bv.Bool
	for _, a := range apps.All() {
		targets, err := core.NewAnalyzer(a, core.Options{}).AnalyzeContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", a.Short, err)
		}
		for _, tg := range targets {
			betas = append(betas, tg.Beta)
		}
	}
	if len(betas) < 40 {
		t.Fatalf("analysis gave %d targets, want the paper's 40 and more", len(betas))
	}
	opts := sat.Options{Seed: 3, RandomPolarity: 0.02, MaxConflicts: 500}
	type encoding struct {
		s  *sat.Solver
		bl *bitblast.Blaster
	}
	encode := func(e encoding, beta *bv.Bool) (int, [][]sat.Lit) {
		e.bl.Assert(beta)
		var bits [][]sat.Lit
		vars := bv.BoolVars(beta)
		for _, name := range vars.Names() {
			bits = append(bits, e.bl.Bits(vars[name]))
		}
		return e.s.NumVars(), bits
	}

	largest, most := betas[0], 0
	for _, beta := range betas {
		s := sat.New(sat.Options{})
		bitblast.New(s).Assert(beta)
		if s.NumVars() > most {
			largest, most = beta, s.NumVars()
		}
	}
	rs := sat.New(opts)
	recycled := encoding{rs, bitblast.New(rs)}
	recycled.bl.Assert(largest)
	recycled.s.SolveUnderAssumptions(nil)
	for i, beta := range betas {
		fs := sat.New(opts)
		fresh := encoding{fs, bitblast.New(fs)}
		recycled.s.Reset(opts)
		recycled.bl.Reset(recycled.s)
		fn, fbits := encode(fresh, beta)
		rn, rbits := encode(recycled, beta)
		if fn != rn {
			t.Fatalf("β #%d: fresh encoding has %d variables, recycled %d", i, fn, rn)
		}
		for k := range fbits {
			if !slices.Equal(fbits[k], rbits[k]) {
				t.Fatalf("β #%d: input %d encodes as %v fresh, %v recycled", i, k, fbits[k], rbits[k])
			}
		}
		fr, rr := fresh.s.SolveUnderAssumptions(nil), recycled.s.SolveUnderAssumptions(nil)
		if fr != rr || fresh.s.Conflicts != recycled.s.Conflicts || fresh.s.Decisions != recycled.s.Decisions ||
			fresh.s.Propagations != recycled.s.Propagations {
			t.Fatalf("β #%d: fresh solve %v (%d/%d/%d), recycled %v (%d/%d/%d)", i,
				fr, fresh.s.Conflicts, fresh.s.Decisions, fresh.s.Propagations,
				rr, recycled.s.Conflicts, recycled.s.Decisions, recycled.s.Propagations)
		}
		if fr == sat.Sat && !slices.Equal(fresh.s.Model(), recycled.s.Model()) {
			t.Fatalf("β #%d: fresh and recycled models differ", i)
		}
	}
}
