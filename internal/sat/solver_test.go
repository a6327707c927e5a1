package sat

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New(Options{})
	a := s.NewVar()
	if !s.AddClause(PosLit(a)) {
		t.Fatal("unit clause rejected")
	}
	if got := s.SolveUnderAssumptions(nil); got != Sat {
		t.Fatalf("solve = %v, want sat", got)
	}
	if !s.ModelValue(a) {
		t.Fatal("model does not satisfy unit clause")
	}
}

func TestContradiction(t *testing.T) {
	s := New(Options{})
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if s.AddClause(NegLit(a)) {
		t.Fatal("contradictory unit accepted")
	}
	if got := s.SolveUnderAssumptions(nil); got != Unsat {
		t.Fatalf("solve = %v, want unsat", got)
	}
}

func TestAllFourClausesUnsat(t *testing.T) {
	s := New(Options{})
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(PosLit(a), NegLit(b))
	s.AddClause(NegLit(a), NegLit(b))
	if got := s.SolveUnderAssumptions(nil); got != Unsat {
		t.Fatalf("solve = %v, want unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New(Options{})
	a, b := s.NewVar(), s.NewVar()
	// Tautologous clause must be ignored, duplicates deduplicated.
	s.AddClause(PosLit(a), NegLit(a))
	s.AddClause(PosLit(b), PosLit(b), PosLit(b))
	if got := s.SolveUnderAssumptions(nil); got != Sat {
		t.Fatalf("solve = %v, want sat", got)
	}
	if !s.ModelValue(b) {
		t.Fatal("b must be true")
	}
}

// addPigeonhole encodes PHP(pigeons, holes) into s: every pigeon sits in
// some hole and no two pigeons share one. It is unsatisfiable when pigeons
// outnumber holes, and the refutation needs many conflicts.
func addPigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]Var, pigeons)
	for p := range vars {
		vars[p] = make([]Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

// pigeonhole solves PHP(pigeons, holes) on a fresh solver.
func pigeonhole(pigeons, holes int) Result {
	s := New(Options{})
	addPigeonhole(s, pigeons, holes)
	return s.SolveUnderAssumptions(nil)
}

func TestPigeonholeUnsat(t *testing.T) {
	if got := pigeonhole(5, 4); got != Unsat {
		t.Fatalf("PHP(5,4) = %v, want unsat", got)
	}
	if got := pigeonhole(7, 6); got != Unsat {
		t.Fatalf("PHP(7,6) = %v, want unsat", got)
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	if got := pigeonhole(4, 4); got != Sat {
		t.Fatalf("PHP(4,4) = %v, want sat", got)
	}
}

// randCNF generates a random small CNF over nVars variables.
func randCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		width := 1 + rng.Intn(3)
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	return cnf
}

// loadCNF adds a CNF to a fresh solver; the result is false when a clause
// conflicts at the root.
func loadCNF(s *Solver, nVars int, cnf [][]Lit) bool {
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return false
		}
	}
	return true
}

// bruteForce decides satisfiability of a small CNF by exhaustive search.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func modelSatisfies(model []bool, cnf [][]Lit) bool {
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if model[l.Var()] != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestRandomCNFAgainstBruteForce cross-checks the CDCL solver against
// exhaustive search on hundreds of random small instances, both near and at
// the sat/unsat phase-transition density.
func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(6*nVars)
		cnf := randCNF(rng, nVars, nClauses)
		s := New(Options{Seed: int64(trial)})
		got := Unsat
		if loadCNF(s, nVars, cnf) {
			got = s.SolveUnderAssumptions(nil)
		}
		want := bruteForce(nVars, cnf)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce_sat=%v (%d vars, %d clauses)",
				trial, got, want, nVars, nClauses)
		}
		if got == Sat && !modelSatisfies(s.Model(), cnf) {
			t.Fatalf("trial %d: model does not satisfy formula", trial)
		}
	}
}

// TestSamplingPrimitivesAgainstBruteForce cross-checks the restart-sampling
// step against exhaustive search on random small CNFs: after a plain solve,
// every PartialRestart → PerturbPhases → SetDecisionFocus → SolveContinue
// round must return a model of the formula, never Unsat on a satisfiable
// one, and must keep answering Unsat on an unsatisfiable one. Focus budgets
// of 0–3 conflicts make the focus lapse mid-search in some rounds.
func TestSamplingPrimitivesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		nVars := 3 + rng.Intn(10)
		cnf := randCNF(rng, nVars, 2+rng.Intn(5*nVars))
		want := bruteForce(nVars, cnf)
		s := New(Options{Seed: int64(trial)})
		if !loadCNF(s, nVars, cnf) {
			if want {
				t.Fatalf("trial %d: root conflict on a satisfiable formula", trial)
			}
			continue
		}
		got := s.SolveUnderAssumptions(nil)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solve=%v bruteforce_sat=%v", trial, got, want)
		}
		vars := make([]Var, nVars)
		for i, v := range rng.Perm(nVars) {
			vars[i] = Var(v)
		}
		for round := 0; round < 6; round++ {
			s.PartialRestart(rng, 0)
			s.PerturbPhases(rng, 0.5, vars)
			s.SetDecisionFocus(vars[:1+rng.Intn(nVars)], int64(rng.Intn(4)))
			got := s.SolveContinue()
			if want && got != Sat {
				t.Fatalf("trial %d round %d: SolveContinue = %v on a satisfiable formula", trial, round, got)
			}
			if !want && got != Unsat {
				t.Fatalf("trial %d round %d: SolveContinue = %v on an unsatisfiable formula", trial, round, got)
			}
			if got == Sat && !modelSatisfies(s.Model(), cnf) {
				t.Fatalf("trial %d round %d: model does not satisfy formula", trial, round)
			}
		}
		s.SetDecisionFocus(nil, 0)
	}
}

// TestDecisionFocusZeroBudgetIsNoFocus checks that a focus armed with a
// zero conflict budget never steers a decision: on a fixed seed the solve
// matches an unfocused one in result and in every work counter.
func TestDecisionFocusZeroBudgetIsNoFocus(t *testing.T) {
	run := func(focus bool) *Solver {
		s := New(Options{Seed: 7, RandomPolarity: 0.1})
		addPigeonhole(s, 7, 6)
		if focus {
			vars := make([]Var, s.NumVars())
			for i := range vars {
				vars[i] = Var(len(vars) - 1 - i)
			}
			s.SetDecisionFocus(vars, 0)
		}
		if got := s.SolveUnderAssumptions(nil); got != Unsat {
			t.Fatalf("PHP(7,6) = %v, want unsat", got)
		}
		return s
	}
	plain, zero := run(false), run(true)
	if plain.Decisions != zero.Decisions || plain.Conflicts != zero.Conflicts || plain.Propagations != zero.Propagations {
		t.Fatalf("zero-budget focus changed the search: decisions %d/%d, conflicts %d/%d, propagations %d/%d",
			plain.Decisions, zero.Decisions, plain.Conflicts, zero.Conflicts, plain.Propagations, zero.Propagations)
	}
}

// TestDecisionFocusDecidesFocusFirst checks the focus order itself: while
// the budget lasts, the focus variables are decided first and in the given
// order, ahead of the activity order; with a zero budget they are not.
func TestDecisionFocusDecidesFocusFirst(t *testing.T) {
	trailVars := func(budget int64) []Var {
		s := New(Options{Seed: 1})
		for i := 0; i < 12; i++ {
			s.NewVar()
		}
		s.SetDecisionFocus([]Var{7, 6, 5, 4, 3, 2, 1, 0}, budget)
		if s.SolveUnderAssumptions(nil) != Sat {
			t.Fatal("expected sat")
		}
		out := make([]Var, len(s.trail))
		for i, l := range s.trail {
			out[i] = l.Var()
		}
		return out
	}
	want := []Var{7, 6, 5, 4, 3, 2, 1, 0}
	if got := trailVars(1 << 20)[:len(want)]; !slices.Equal(got, want) {
		t.Fatalf("focused decisions ran in order %v, want %v", got, want)
	}
	if got := trailVars(0)[:len(want)]; slices.Equal(got, want) {
		t.Fatalf("zero-budget focus still decided %v first", got)
	}
}

// TestSamplingPrimitivesReachFreshModels is the diversity half of the
// restart-sampling contract: on an under-constrained formula, perturbed
// partial restarts must reach several distinct models without any blocking
// clauses.
func TestSamplingPrimitivesReachFreshModels(t *testing.T) {
	s := New(Options{Seed: 3})
	rng := rand.New(rand.NewSource(9))
	vars := make([]Var, 8)
	lits := make([]Lit, len(vars))
	for i := range vars {
		vars[i] = s.NewVar()
		lits[i] = PosLit(vars[i])
	}
	s.AddClause(lits...) // at least one variable true
	if s.SolveUnderAssumptions(nil) != Sat {
		t.Fatal("expected sat")
	}
	s.SetDecisionFocus(vars, 1<<20)
	distinct := make(map[[8]bool]bool)
	for i := 0; i < 24; i++ {
		s.PartialRestart(rng, 0)
		s.PerturbPhases(rng, 0.5, vars)
		if s.SolveContinue() != Sat {
			t.Fatal("expected sat")
		}
		var key [8]bool
		for j, v := range vars {
			key[j] = s.ModelValue(v)
		}
		distinct[key] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("24 perturbed restarts found only %d distinct models", len(distinct))
	}
}

// TestRandomPolarityDiversity checks that randomized polarity yields more
// than one distinct model across seeds for an under-constrained formula.
func TestRandomPolarityDiversity(t *testing.T) {
	distinct := make(map[[8]bool]bool)
	for seed := int64(0); seed < 16; seed++ {
		s := New(Options{Seed: seed, RandomPolarity: 0.5})
		vars := make([]Var, 8)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		// One weak constraint: at least one variable true.
		lits := make([]Lit, len(vars))
		for i, v := range vars {
			lits[i] = PosLit(v)
		}
		s.AddClause(lits...)
		if s.SolveUnderAssumptions(nil) != Sat {
			t.Fatal("expected sat")
		}
		var key [8]bool
		for i, v := range vars {
			key[i] = s.ModelValue(v)
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("expected diverse models across seeds, got %d distinct", len(distinct))
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := New(Options{MaxConflicts: 1})
	addPigeonhole(s, 6, 5) // needs far more than one conflict
	if got := s.SolveUnderAssumptions(nil); got != Unknown {
		t.Fatalf("solve with 1-conflict budget = %v, want unknown", got)
	}
}

// TestStopFlag checks cooperative cancellation: a pre-set stop flag makes the
// next conflict abort with Unknown, and clearing it restores the solver.
func TestStopFlag(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	s := New(Options{Stop: &stop})
	addPigeonhole(s, 6, 5) // the stop must win long before the refutation
	if got := s.SolveUnderAssumptions(nil); got != Unknown {
		t.Fatalf("solve with stop set = %v, want unknown", got)
	}
	stop.Store(false)
	if got := s.SolveUnderAssumptions(nil); got != Unsat {
		t.Fatalf("solve after clearing stop = %v, want unsat", got)
	}
}

func TestIncrementalBlocking(t *testing.T) {
	s := New(Options{})
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	seen := make(map[[2]bool]bool)
	for i := 0; i < 4; i++ {
		res := s.SolveUnderAssumptions(nil)
		if res != Sat {
			break
		}
		m := [2]bool{s.ModelValue(a), s.ModelValue(b)}
		if seen[m] {
			t.Fatalf("model %v repeated despite blocking", m)
		}
		seen[m] = true
		var block []Lit
		for v, val := range map[Var]bool{a: m[0], b: m[1]} {
			block = append(block, MkLit(v, val))
		}
		s.AddClause(block...)
	}
	if len(seen) != 3 {
		t.Fatalf("expected exactly 3 models of (a∨b), got %d", len(seen))
	}
}

// TestIncrementalAddAfterSolve exercises the persistent-instance API:
// AddClause after a Solve must backtrack internally and further solves must
// account for the new clauses.
func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New(Options{})
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(PosLit(c), NegLit(c)) // keep c mentioned
	if got := s.SolveUnderAssumptions(nil); got != Sat {
		t.Fatalf("solve = %v, want sat", got)
	}
	// AddClause must handle the leftover decision levels.
	if !s.AddClause(NegLit(a)) {
		t.Fatal("¬a rejected")
	}
	if !s.AddClause(NegLit(b), PosLit(c)) {
		t.Fatal("(¬b ∨ c) rejected")
	}
	if got := s.SolveUnderAssumptions(nil); got != Sat {
		t.Fatalf("incremental solve = %v, want sat", got)
	}
	if s.ModelValue(a) || !s.ModelValue(b) || !s.ModelValue(c) {
		t.Fatalf("model (a,b,c) = (%v,%v,%v), want (false,true,true)",
			s.ModelValue(a), s.ModelValue(b), s.ModelValue(c))
	}
	if s.AddClause(NegLit(c)) {
		t.Fatal("¬c must conflict at the root")
	}
	if got := s.SolveUnderAssumptions(nil); got != Unsat {
		t.Fatalf("final solve = %v, want unsat", got)
	}
}

// TestSolveUnderAssumptionsMatchesUnits cross-checks assumption solving
// against the unit-clause encoding on random instances: for every CNF F and
// assumption set A, SolveUnderAssumptions(A) on a persistent instance must
// agree with a fresh solver deciding F ∧ A. Several assumption rounds run on
// the same instance, so retained learned clauses and saved phases are
// exercised, and a final plain Solve checks the instance was not poisoned by
// assumption failures.
func TestSolveUnderAssumptionsMatchesUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 2 + rng.Intn(5*nVars)
		cnf := make([][]Lit, nClauses)
		for i := range cnf {
			width := 1 + rng.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New(Options{Seed: int64(trial)})
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		rootOK := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				rootOK = false
				break
			}
		}
		for round := 0; round < 4; round++ {
			assumps := make([]Lit, rng.Intn(4))
			for i := range assumps {
				assumps[i] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			}
			var got Result
			if !rootOK {
				got = Unsat
			} else {
				got = s.SolveUnderAssumptions(assumps)
			}
			ref := New(Options{Seed: int64(trial*10 + round)})
			for i := 0; i < nVars; i++ {
				ref.NewVar()
			}
			refOK := true
			for _, cl := range cnf {
				if !ref.AddClause(cl...) {
					refOK = false
					break
				}
			}
			for _, a := range assumps {
				if refOK && !ref.AddClause(a) {
					refOK = false
				}
			}
			want := Unsat
			if refOK {
				want = ref.SolveUnderAssumptions(nil)
			}
			if got != want {
				t.Fatalf("trial %d round %d: assumptions %v: got %v, unit encoding says %v",
					trial, round, assumps, got, want)
			}
			if got == Sat {
				if !modelSatisfies(s.Model(), cnf) {
					t.Fatalf("trial %d round %d: model violates formula", trial, round)
				}
				for _, a := range assumps {
					if s.ModelValue(a.Var()) == a.Sign() {
						t.Fatalf("trial %d round %d: model violates assumption %v", trial, round, a)
					}
				}
			}
		}
		// The instance must still answer the unconditional query correctly.
		var got Result
		if !rootOK {
			got = Unsat
		} else {
			got = s.SolveUnderAssumptions(nil)
		}
		if want := bruteForce(nVars, cnf); (got == Sat) != want {
			t.Fatalf("trial %d: plain solve after assumption rounds = %v, brute force sat=%v",
				trial, got, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	v := Var(7)
	p := PosLit(v)
	n := NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatal("Var roundtrip failed")
	}
	if p.Sign() || !n.Sign() {
		t.Fatal("Sign incorrect")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatal("Neg incorrect")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatal("MkLit incorrect")
	}
}
