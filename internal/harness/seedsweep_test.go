package harness

import (
	"context"
	"slices"
	"testing"

	"diode/internal/apps"
)

// TestClassificationStableAcrossSeeds runs the sweep at several seeds: the
// class-level results must not depend on the random draws. At every seed
// the paper suite classifies as Table 1 does (14/17/9). At seeds 1–3 the
// sweep also covers the extended suite, which must classify 4/3/3, and runs
// the §5.4 same-path experiment, whose sat set over the paper suite must be
// exactly the paper's two sites.
func TestClassificationStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	wantSat := []string{"cwebp:jpegdec.c@248", "swfplay:jpeg.c@192"}
	for _, seed := range []int64{1, 2, 3, 21, 77, 1234} {
		cfg, list := Config{Seed: seed}, apps.Paper()
		full := seed <= 3
		if full {
			cfg.SamePath, list = true, apps.All()
		}
		outcomes := EvaluateContext(context.Background(), cfg, list)
		var paper, extended [3]int // exposed, unsatisfiable, prevented
		var sat []string
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			n := &extended
			if o.App.Paper != nil {
				n = &paper
				for _, s := range o.Record.Sites {
					if s.SamePathSat == "sat" {
						sat = append(sat, s.Site)
					}
				}
			}
			for _, sr := range o.Result.Sites {
				switch sr.Verdict.Class() {
				case apps.ClassExposed:
					n[0]++
				case apps.ClassUnsat:
					n[1]++
				default:
					n[2]++
				}
			}
		}
		if paper != [3]int{14, 17, 9} {
			t.Errorf("seed %d: paper classification %d/%d/%d, paper: 14/17/9",
				seed, paper[0], paper[1], paper[2])
		}
		if !full {
			continue
		}
		if extended != [3]int{4, 3, 3} {
			t.Errorf("seed %d: extended classification %d/%d/%d, want 4/3/3",
				seed, extended[0], extended[1], extended[2])
		}
		slices.Sort(sat)
		if !slices.Equal(sat, wantSat) {
			t.Errorf("seed %d: same-path sat at %v, paper: %v", seed, sat, wantSat)
		}
	}
}
