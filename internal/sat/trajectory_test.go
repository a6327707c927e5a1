package sat

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateTrajectory = flag.Bool("update-trajectory", false,
	"rewrite the golden search trajectories in testdata/trajectory.golden")

// trajectoryCase is one scripted workload: run drives s, a solver in the
// state New(trajectoryOptions(seed)) gives, and calls rec after every solve
// call.
type trajectoryCase struct {
	name string
	run  func(s *Solver, seed int64, rec func(*Solver, Result))
}

// trajectoryOptions are the options of every trajectory case's solver.
func trajectoryOptions(seed int64) Options {
	return Options{Seed: seed, RandomPolarity: 0.02}
}

// trajectoryCases cover the engine's four call shapes: a single hard solve,
// an unsat refutation long enough to reduce the learnt database several
// times, an incremental assumption sequence with clauses added between
// solves, and the restart-sampling loop the solver package runs.
var trajectoryCases = []trajectoryCase{
	{"rand3cnf", func(s *Solver, seed int64, rec func(*Solver, Result)) {
		rng := rand.New(rand.NewSource(seed))
		load3CNF(s, rng, 150, 639) // clause/variable ratio 4.26
		rec(s, s.SolveUnderAssumptions(nil))
	}},
	{"php8-7", func(s *Solver, seed int64, rec func(*Solver, Result)) {
		addPigeonhole(s, 8, 7)
		rec(s, s.SolveUnderAssumptions(nil))
	}},
	{"assumptions", func(s *Solver, seed int64, rec func(*Solver, Result)) {
		rng := rand.New(rand.NewSource(seed))
		const nVars = 120
		load3CNF(s, rng, nVars, 468) // ratio 3.9
		for call := 0; call < 24; call++ {
			assumps := make([]Lit, 2+rng.Intn(10))
			for i := range assumps {
				assumps[i] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			}
			res := s.SolveUnderAssumptions(assumps)
			rec(s, res)
			if res == Sat {
				block := make([]Lit, 20)
				for v := range block {
					block[v] = MkLit(Var(v), s.ModelValue(Var(v)))
				}
				s.AddClause(block...)
			}
		}
	}},
	{"sampling", func(s *Solver, seed int64, rec func(*Solver, Result)) {
		rng := rand.New(rand.NewSource(seed))
		load3CNF(s, rng, 120, 456) // ratio 3.8
		bits := make([]Var, 32)
		for i := range bits {
			bits[i] = Var(i)
		}
		rec(s, s.SolveUnderAssumptions(nil))
		s.SetRandomPolarity(0)
		for round := 0; round < 40; round++ {
			if round%10 == 9 {
				// Block the last draw's projection, as the blocking
				// fallback does, which backtracks to the root.
				block := make([]Lit, len(bits))
				for i, v := range bits {
					block[i] = MkLit(v, s.ModelValue(v))
				}
				s.AddClause(block...)
				if res := s.SolveUnderAssumptions(nil); res != Sat {
					rec(s, res)
					return
				}
			}
			s.PartialRestart(rng, 0)
			s.PerturbPhases(rng, 0.5, bits)
			s.SetDecisionFocus(bits, 4096)
			res := s.SolveContinue()
			rec(s, res)
			if res != Sat {
				return
			}
		}
	}},
}

// load3CNF adds nClauses random clauses of three distinct variables over
// nVars fresh variables.
func load3CNF(s *Solver, rng *rand.Rand, nVars, nClauses int) {
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for i := 0; i < nClauses; i++ {
		vs := rng.Perm(nVars)[:3]
		s.AddClause(MkLit(Var(vs[0]), rng.Intn(2) == 1), MkLit(Var(vs[1]), rng.Intn(2) == 1), MkLit(Var(vs[2]), rng.Intn(2) == 1))
	}
}

// modelHash is the FNV-64a hash of a model, one byte per variable.
func modelHash(m []bool) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(m))
	for i, b := range m {
		if b {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// trajectory runs one case at one seed and returns its golden lines: the
// result, the cumulative work counters and the model hash after every call.
func trajectory(tc trajectoryCase, seed int64) string {
	return replay(tc, seed, New(trajectoryOptions(seed)))
}

// replay is trajectory on s, which must be in the state
// New(trajectoryOptions(seed)) gives.
func replay(tc trajectoryCase, seed int64, s *Solver) string {
	var b strings.Builder
	call := 0
	tc.run(s, seed, func(s *Solver, res Result) {
		model := "-"
		if res == Sat {
			model = fmt.Sprintf("%016x", modelHash(s.Model()))
		}
		fmt.Fprintf(&b, "%s seed=%d call=%d %v conflicts=%d decisions=%d propagations=%d model=%s\n",
			tc.name, seed, call, res, s.Conflicts, s.Decisions, s.Propagations, model)
		call++
	})
	return b.String()
}

// TestGoldenTrajectory pins the CDCL search trajectory bit for bit: every
// solve call's result, its conflict, decision and propagation counts and a
// hash of its model, for four call shapes at seeds 1–3. Any change to watch
// order, in-clause literal order, learnt-clause order, reduction order or
// the random stream moves some line here, and with it every sampled model
// the tables are built from. Rerun with -update-trajectory only for a change
// meant to alter the search.
func TestGoldenTrajectory(t *testing.T) {
	var b strings.Builder
	for _, tc := range trajectoryCases {
		for seed := int64(1); seed <= 3; seed++ {
			b.WriteString(trajectory(tc, seed))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "trajectory.golden")
	if *updateTrajectory {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-trajectory to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("search trajectory diverges from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search trajectory has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
