package harness

import (
	"context"
	"testing"

	"diode/internal/apps"
)

// TestClassificationStableAcrossSeeds runs the full paper sweep at several
// seeds: the Table 1 classification must not depend on the random draws.
func TestClassificationStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{1, 21, 77, 1234} {
		outcomes := EvaluateContext(context.Background(), Config{Seed: seed}, apps.Paper())
		var exposed, unsat, prevented int
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			for _, sr := range o.Result.Sites {
				switch sr.Verdict.Class() {
				case apps.ClassExposed:
					exposed++
				case apps.ClassUnsat:
					unsat++
				default:
					prevented++
				}
			}
		}
		if exposed != 14 || unsat != 17 || prevented != 9 {
			t.Errorf("seed %d: classification %d/%d/%d, paper: 14/17/9",
				seed, exposed, unsat, prevented)
		}
	}
}
