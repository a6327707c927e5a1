package sat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompactionKeepsTrajectory runs every golden workload and checks each
// run that compacted its arena: its trajectory must still equal the golden
// lines, and the rebuilt arena must be consistent. PHP(8,7) frees enough
// learnt clauses to compact at every seed, so the test fails if it ever
// stops compacting.
func TestCompactionKeepsTrajectory(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trajectory.golden"))
	if err != nil {
		t.Fatal(err)
	}
	compacted := map[string]bool{}
	for _, tc := range trajectoryCases {
		for seed := int64(1); seed <= 3; seed++ {
			var last *Solver
			got := trajectory(trajectoryCase{tc.name, func(seed int64, rec func(*Solver, Result)) {
				tc.run(seed, func(s *Solver, res Result) {
					last = s
					rec(s, res)
				})
			}}, seed)
			if last.compactions == 0 {
				continue
			}
			compacted[tc.name] = true
			t.Logf("%s seed %d: %d compactions", tc.name, seed, last.compactions)
			if !strings.Contains(string(golden), got) {
				t.Errorf("%s seed %d compacted %d times and left the golden trajectory:\n%s",
					tc.name, seed, last.compactions, got)
			}
			checkArena(t, last)
		}
	}
	if !compacted["php8-7"] {
		t.Fatal("PHP(8,7) never compacted its arena")
	}
}

// checkArena verifies the arena against every reference into it: wasted
// counts exactly the freed words, each live clause is watched once under
// the negation of each of its two first literals and nowhere else, learnts
// lists exactly the live learnt clauses, and an assigned variable's reason
// is a live clause implying it.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	freed, learnts, problems := 0, 0, 0
	for c := 0; c < len(s.arena); c += s.words(cref(c)) {
		switch hdr := s.arena[c]; {
		case hdr&hdrFreed != 0:
			freed += s.words(cref(c))
		case hdr&hdrLearnt != 0:
			live[cref(c)] = true
			learnts++
		default:
			live[cref(c)] = true
			problems++
		}
	}
	if freed != s.wasted {
		t.Errorf("arena holds %d freed words, wasted says %d", freed, s.wasted)
	}
	if problems != s.numClauses || learnts != len(s.learnts) {
		t.Errorf("arena holds %d problem and %d learnt clauses, solver counts %d and %d",
			problems, learnts, s.numClauses, len(s.learnts))
	}
	for _, c := range s.learnts {
		if !live[c] || s.arena[c]&hdrLearnt == 0 {
			t.Errorf("learnts names %d, not a live learnt clause", c)
		}
	}
	watched := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			if !live[w.c] {
				t.Fatalf("watch list of %d names %d, not a live clause", l, w.c)
			}
			if lits := s.lits(w.c); lits[0] != Lit(l).Neg() && lits[1] != Lit(l).Neg() {
				t.Fatalf("watch list of %d names clause %v, which watches %d and %d", l, lits, lits[0], lits[1])
			}
			watched[w.c]++
		}
	}
	for c := range live {
		if watched[c] != 2 {
			t.Errorf("clause %v has %d watchers, want 2", s.lits(c), watched[c])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef && (!live[r] || s.lits(r)[0] != l) {
			t.Errorf("reason of %d is %d, not a live clause implying it", l, r)
		}
	}
}

// TestArenaFits checks the bound alloc panics on: a clause reference must
// stay below crefUndef and a clause's size must fit its header.
func TestArenaFits(t *testing.T) {
	limit := int(crefUndef)
	for _, tc := range []struct {
		used, size, n int
		want          bool
	}{
		{0, 2, 3, true},
		{limit - 3, 2, 3, true},
		{limit - 3, 3, 4, false},
		{limit, 1, 2, false},
		{0, 1<<30 - 1, 1 << 30, true},
		{0, 1 << 30, 1<<30 + 1, false},
	} {
		if got := arenaFits(tc.used, tc.size, tc.n); got != tc.want {
			t.Errorf("arenaFits(%d, %d, %d) = %v, want %v", tc.used, tc.size, tc.n, got, tc.want)
		}
	}
}
