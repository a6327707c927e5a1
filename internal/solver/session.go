package solver

import (
	"math/rand"

	"diode/internal/bitblast"
	"diode/internal/bv"
	"diode/internal/sat"
)

// Session is an incremental solving session over a monotonically growing
// conjunction — the exact workload shape of the Figure 7 enforcement loop,
// which conjoins one more flipped-branch constraint into φ′ each iteration
// and re-solves φ′∧β. A Session owns one persistent CDCL engine and one
// hash-consed blaster, so across the loop:
//
//   - each conjunct is bit-blasted exactly once, and shared subterms (the
//     target expression B appears in every iteration's conjunction) are
//     encoded exactly once in total;
//   - clauses learned while refuting earlier iterations' search space are
//     retained, as are saved variable phases;
//   - models found earlier in the session are re-checked against the
//     extended conjunction before any fresh search runs — a model that
//     still satisfies the grown formula is returned directly. A cached
//     model is only eligible after the conjunction has grown past the
//     point where it was last returned, so a loop that re-solves an
//     unchanged formula to get a *different* model (Hunt's crashed-early
//     case) is never fed the same answer twice.
//
// Determinism: a Session draws all randomness (concrete sampling, engine
// seeds, restart perturbations) from a private stream derived from (parent
// seed, session ordinal), so session verdicts and the per-seed model
// *sequence* are a pure function of the parent's seed, the session's
// creation ordinal, and the Assert/Solve/SampleModels call sequence —
// independent of what other sessions do concurrently. Sampling never narrows what later Solve calls
// may return: restart sampling adds no clauses at all, and the blocking
// fallback's clauses are guarded by fresh literals activated only through
// assumptions, so they evaporate after the call.
//
// A Session is not safe for concurrent use; create one per goroutine (the
// core Hunter opens one per hunt).
type Session struct {
	sol   *Solver
	rng   *rand.Rand        // private stream: sessionSeed(parent seed, ordinal)
	cur   *bv.Bool          // conjunction of everything asserted so far
	conj  []*bv.Bool        // deduped conjuncts in assertion order
	seen  map[*bv.Bool]bool // conj entries (interned, so pointer-keyed)
	vars  bv.VarSet         // union of the conjuncts' free variables
	names []string          // sorted names of vars, refreshed when a variable arrives

	engine        *sat.Solver
	bl            *bitblast.Blaster
	encoded       int // conj[:encoded] have been asserted into bl
	cdclCalls     int
	solvedGen     int   // 1 + conjunction length at the last CDCL Solve (0 = never)
	learntsSeen   int   // high-water learnt count already folded into ClausesReused
	conflictsSeen int64 // engine conflicts already folded into Stats.Conflicts

	cache []cachedModel
}

// cachedModel is a model previously returned by this session, tagged with
// the conjunction length at the time it was last returned. It becomes a
// candidate answer again only once the conjunction has grown beyond that
// point.
type cachedModel struct {
	m   bv.Assignment
	gen int
}

// Random decision polarities for the persistent engine, by purpose. Saved
// phases make a persistent engine strongly prefer re-deriving its previous
// model, which is what we want when the conjunction just grew (warm start)
// but exactly wrong when a caller re-solves an *unchanged* conjunction to
// get a different model (Hunt's crashed-early case) — there the retry rate
// matches the sampling rate so saved phases cannot pin the search.
const (
	polarityFind   = 0.02 // first solve of a given conjunction state
	polarityRetry  = 0.2  // re-solve of an unchanged conjunction
	polaritySample = 0.2  // blocking-strategy model enumeration

	// polarityRestartSample runs the engine fully greedy during restart
	// sampling: every decision takes its saved phase, and all diversity comes
	// from the explicit per-restart perturbation of the input-bit phases.
	// Random decision polarity on top of that perturbation only adds
	// conflicts — the perturbation already controls exactly the bits that
	// distinguish models.
	polarityRestartSample = 0.0

	// restartFlipProb is the saved-phase flip rate a sampling restart applies
	// to the input-variable bits freed by the backtrack
	// (sat.Solver.PerturbPhases): the replaced suffix of the trail is
	// re-decided with a perturbed projection while the kept prefix — the
	// expensive part of re-solving — stays in place. Diversity accumulates
	// across samples because every restart draws a new backtrack depth, so
	// the walk eventually replaces every prefix.
	restartFlipProb = 0.25

	// restartSampleStale is how many consecutive restart samples may
	// rediscover already-seen models before sampling falls back to blocking
	// enumeration — the only strategy that can certify exhaustion. Restarts
	// on a near-exhausted solution set are cheap (the engine re-derives a
	// known model quickly), so a few wasted solves cost far less than
	// carrying blocking clauses through every solve of a large sample.
	restartSampleStale = 8

	// restartFocusConflicts is the per-draw conflict budget of projection-first
	// (input-bits-first) decisions during restart sampling. On dense solution
	// sets a focused draw completes in a handful of conflicts and the flipped
	// input phases translate directly into a fresh model; once a draw blows
	// this budget the solution set is sparse and the focus is dropped — the
	// activity order finds needles, the perturbed phases still diversify.
	restartFocusConflicts = 32

	// restartFocusLapse is the conflict budget after which a focused draw
	// hands decisions back to the activity order *within* the draw. On an
	// unsatisfiable β the first draw is the proof, and under the focus it
	// refutes input assignments one by one: tens of thousands of conflicts
	// on a 24-input-bit β that the activity order refutes in a few hundred. The lapse sits above every focused draw that ends Sat in the
	// measured tables and arith waves (at most 1,356 conflicts), so it moves
	// none of their sampled models; DESIGN.md §"Sampling" has the numbers.
	restartFocusLapse = 4096
)

// NewSession opens an incremental session whose initial constraint is beta
// (the target constraint in a hunt). Further constraints are conjoined with
// Assert. The CDCL engine is created lazily on the first solve that needs
// it, drawing its seed from the session's private stream at that point.
func (s *Solver) NewSession(beta *bv.Bool) *Session {
	ss := &Session{
		sol:  s,
		rng:  rand.New(rand.NewSource(sessionSeed(s.opts.Seed, s.sessions.Add(1)))),
		cur:  bv.True(),
		seen: make(map[*bv.Bool]bool),
		vars: make(bv.VarSet),
	}
	ss.Assert(beta)
	return ss
}

// Assert conjoins cond into the session's constraint. The formula is split
// into leaf conjuncts (bv.Conjuncts), and only conjuncts the session has not
// seen before are recorded — so re-asserting φ′∧β after one more branch
// constraint was conjoined costs exactly one new conjunct. Nothing is
// bit-blasted yet; encoding happens on the first solve that reaches the
// CDCL phase.
func (ss *Session) Assert(cond *bv.Bool) {
	grew := false
	for _, c := range bv.Conjuncts(cond) {
		if c.Kind == bv.BConst {
			if !c.BVal {
				ss.cur = bv.False()
			}
			continue
		}
		if ss.seen[c] {
			continue
		}
		ss.seen[c] = true
		ss.conj = append(ss.conj, c)
		ss.cur = bv.AndB(ss.cur, c)
		for name, v := range bv.BoolVars(c) {
			if _, ok := ss.vars[name]; !ok {
				ss.vars[name] = v
				grew = true
			}
		}
	}
	if grew {
		ss.names = ss.vars.Names()
	}
}

// Solve returns a model of the current conjunction, or Unsat/Unknown.
// Unsat is definitive for every later state of the session too (the
// conjunction only grows), and the session keeps answering Unsat cheaply.
func (ss *Session) Solve() (bv.Assignment, Verdict) {
	f := ss.cur
	if f.Kind == bv.BConst {
		if f.BVal {
			return bv.Assignment{}, Sat
		}
		return nil, Unsat
	}
	s := ss.sol
	for i := range ss.cache {
		cm := &ss.cache[i]
		if cm.gen >= len(ss.conj) {
			continue
		}
		if ok, err := cm.m.EvalBool(f); err == nil && ok {
			cm.gen = len(ss.conj)
			ss.solvedGen = len(ss.conj) + 1
			s.stats.add(Stats{ModelCacheHits: 1})
			return cm.m, Sat
		}
	}
	if s.opts.Mode != ModeSATOnly {
		if m := concreteSearch(ss.rng, f, ss.names, ss.vars); m != nil {
			s.stats.add(Stats{ConcreteHits: 1})
			ss.remember(m)
			return m, Sat
		}
	}
	polarity := polarityFind
	if ss.solvedGen == len(ss.conj)+1 {
		polarity = polarityRetry // unchanged conjunction: the caller wants a different model
	}
	ss.ensureEngine(polarity)
	switch ss.cdcl(nil) {
	case sat.Sat:
		m := ss.bl.Model()
		ss.remember(m)
		return m, Sat
	case sat.Unsat:
		s.stats.add(Stats{UnsatResults: 1})
		return nil, Unsat
	default:
		s.stats.add(Stats{UnknownOut: 1})
		return nil, Unknown
	}
}

// SampleModels returns up to k distinct models of the current conjunction —
// the paper's "generate 200 inputs that satisfy the constraint" experiments
// (§5.5/§5.6) — and the verdict says why sampling stopped:
//
//   - Sat: k models were found;
//   - Unsat: the conjunction has no models beyond those returned — with no
//     models, it is unsatisfiable;
//   - Unknown: the conflict budget ran out (or the solver was stopped, see
//     Solver.StopOn) before either, so fewer than k models prove nothing.
//
// The default strategy (Options.Sampling = SamplingRestart) draws each model
// by a cheap partial restart of the persistent engine — backtrack to a random
// level of the previous model's trail (sat.Solver.PartialRestart), flip the
// freed input-bit phases at restartFlipProb (PerturbPhases), and resume from
// the kept prefix with random polarity 0 (polarityRestartSample), so only the
// perturbed input bits steer the completion. No blocking clauses accumulate
// and every solve searches the unencumbered formula. Once restartSampleStale
// consecutive restarts rediscover known models, sampling falls back to
// guard-literal blocking enumeration, which alone can certify that the
// solution set is exhausted (the §5.5 two-solution constraints end here).
// Under SamplingBlocking the canonical enumerate-and-block sequence runs from
// the start.
//
// Neither strategy narrows later solves: restarts add no clauses, and the
// blocking clauses are guarded by fresh literals activated through
// assumptions, so they evaporate after the call — a later Solve on the grown
// conjunction may still return any model, including ones sampled here, which
// is exactly what the model cache then exploits.
func (ss *Session) SampleModels(k int) ([]bv.Assignment, Verdict) {
	f := ss.cur
	if f.Kind == bv.BConst {
		if !f.BVal {
			return nil, Unsat
		}
		if k > 1 {
			return []bv.Assignment{{}}, Unsat // the empty assignment is the only model
		}
		return []bv.Assignment{{}}, Sat
	}
	s := ss.sol
	ms := newModelSet(ss.names)
	s.concretePhase(ss.rng, f, ss.vars, ms, k)
	why := Sat
	if len(ms.models) < k {
		if s.opts.Sampling == SamplingBlocking {
			ss.ensureEngine(polaritySample)
			why = ss.sampleBlocking(ms, k)
		} else {
			ss.ensureEngine(polarityRestartSample)
			why = ss.sampleRestart(ms, k)
		}
	}
	for _, m := range ms.models {
		ss.remember(m)
	}
	return ms.models, why
}

// sampleRestart draws models by randomized partial restarts of the
// persistent engine — backtrack to a random level of the previous model's
// trail, flip the freed input-bit phases, resume the search with decisions
// focused on the input bits for up to restartFocusLapse conflicts — until
// the budget is filled or restartSampleStale consecutive solves yield
// nothing new, then hands the model set to blocking enumeration to certify
// exhaustion (or dig out remaining needles the restarts kept missing). The
// first draw runs as a plain solve (empty trail), so a session that never
// solved before still works. The result is the SampleModels verdict.
func (ss *Session) sampleRestart(ms *modelSet, k int) Verdict {
	s := ss.sol
	ss.assertPending()
	// Perturbation targets the input-variable bits: those are the projection
	// models are deduped over, so a flip there is the only kind that can turn
	// the next completion into a fresh model. The engine's auxiliary (Tseitin)
	// variables keep their saved phases — flipping them buys conflicts, not
	// diversity.
	var bits []sat.Var
	for _, name := range ss.names {
		for _, l := range ss.bl.Bits(ss.vars[name]) {
			bits = append(bits, l.Var())
		}
	}
	defer ss.engine.SetDecisionFocus(nil, 0)
	focused := true
	stale := 0
	for len(ms.models) < k && stale < restartSampleStale {
		before := ss.engine.Conflicts
		if focused {
			ss.engine.SetDecisionFocus(bits, restartFocusLapse)
		}
		ss.engine.PartialRestart(ss.rng, 0)
		ss.engine.PerturbPhases(ss.rng, restartFlipProb, bits)
		if res := ss.cdclContinue(); res != sat.Sat {
			return verdictOf(res) // root-level unsat, or the budget ran out
		}
		if focused && ss.engine.Conflicts-before > restartFocusConflicts {
			// Sparse solution set: projection-first decisions degenerate into
			// refuting random input assignments one by one. Hand decisions back
			// to the activity order, which finds the needles.
			focused = false
			ss.engine.SetDecisionFocus(nil, 0)
		}
		s.stats.add(Stats{RestartSamples: 1})
		if ms.add(ss.bl.Model()) {
			stale = 0
		} else {
			stale++
			s.stats.add(Stats{DuplicateModels: 1})
		}
	}
	if len(ms.models) >= k {
		return Sat
	}
	s.stats.add(Stats{BlockingFallbacks: 1})
	return ss.sampleBlocking(ms, k)
}

// sampleBlocking is the guard-literal enumerate-and-block sequence: every
// model in ms (and every model found here) is excluded by a clause guarded by
// a fresh literal, and the engine solves under the guard assumptions until
// the budget is filled or the guarded formula is unsatisfiable — which
// certifies that ms holds every model of the conjunction. The result is the
// SampleModels verdict.
func (ss *Session) sampleBlocking(ms *modelSet, k int) Verdict {
	s := ss.sol
	ss.assertPending()
	var guards []sat.Lit
	for _, m := range ms.models {
		guards = append(guards, ss.guardBlock(m))
	}
	for len(ms.models) < k {
		if res := ss.cdcl(guards); res != sat.Sat {
			return verdictOf(res) // exhausted, or the budget ran out
		}
		m := ss.bl.Model()
		if !ms.add(m) {
			// A model the guards should have excluded came back: a
			// sampling-strategy bug. Count it so it surfaces in stats instead
			// of silently truncating the sample, and stop rather than loop.
			s.stats.add(Stats{DuplicateModels: 1})
			return Unknown
		}
		guards = append(guards, ss.guardBlock(m))
	}
	return Sat
}

// verdictOf maps a CDCL result onto the session verdict.
func verdictOf(r sat.Result) Verdict {
	switch r {
	case sat.Sat:
		return Sat
	case sat.Unsat:
		return Unsat
	}
	return Unknown
}

// remember records a model the session has returned, tagged with the current
// conjunction length so it becomes a cache candidate only after the
// conjunction grows. It also marks the current conjunction state as solved,
// so the next solve of the *unchanged* conjunction — from any path: CDCL,
// concrete hit or sampling — runs at retry polarity instead of being pinned
// to this model by saved phases.
func (ss *Session) remember(m bv.Assignment) {
	ss.solvedGen = len(ss.conj) + 1
	ss.cache = append(ss.cache, cachedModel{m: m, gen: len(ss.conj)})
}

// ensureEngine creates the persistent engine and blaster on first use and
// sets the decision polarity for the upcoming call (low for model finding,
// high for diverse sampling). The engine polls the solver's stop flag.
func (ss *Session) ensureEngine(polarity float64) {
	if ss.engine == nil {
		ss.engine = sat.New(sat.Options{
			Seed:           ss.rng.Int63(),
			RandomPolarity: polarity,
			MaxConflicts:   ss.sol.opts.MaxConflicts,
			Stop:           &ss.sol.stop,
		})
		ss.bl = bitblast.New(ss.engine)
		return
	}
	ss.engine.SetRandomPolarity(polarity)
}

// assertPending bit-blasts the conjuncts added since the last CDCL call.
// Everything previously encoded — including every shared subterm — is
// reused from the blaster's caches.
func (ss *Session) assertPending() {
	for _, c := range ss.conj[ss.encoded:] {
		ss.bl.Assert(c)
	}
	ss.encoded = len(ss.conj)
}

// cdcl runs one call on the persistent engine, updating work counters.
func (ss *Session) cdcl(assumps []sat.Lit) sat.Result {
	d := ss.callStats(len(assumps) > 0)
	ss.assertPending()
	return ss.counted(d, ss.engine.SolveUnderAssumptions(assumps))
}

// cdclContinue is cdcl for a restart sample: same work counters, but the
// engine resumes from the trail prefix PartialRestart kept instead of
// re-solving from the root. The conjunction must already be encoded
// (assertPending) — sampling never grows it mid-run.
func (ss *Session) cdclContinue() sat.Result {
	d := ss.callStats(false)
	return ss.counted(d, ss.engine.SolveContinue())
}

// counted folds one finished CDCL call into the solver's counters: d, taken
// before the call, plus the conflicts the engine spent since then.
func (ss *Session) counted(d Stats, res sat.Result) sat.Result {
	d.Conflicts = ss.engine.Conflicts - ss.conflictsSeen
	ss.conflictsSeen = ss.engine.Conflicts
	ss.sol.stats.add(d)
	return res
}

// callStats is the counter delta of one CDCL call on the persistent engine,
// taken before the call. ClausesReused counts each retained learned clause
// once: on every call after the first, the growth of the learnt database
// since the last count is the set of clauses that will be carried into this
// and later calls.
func (ss *Session) callStats(assumed bool) Stats {
	d := Stats{SATSolves: 1}
	if assumed {
		d.AssumptionSolves = 1
	}
	if ss.cdclCalls > 0 {
		// Identity-less approximation: growth of the retained-learnt count
		// since the last call. The unconditional reset keeps the baseline
		// honest after reduceDB prunes below it — the error is bounded to
		// the one call where pruning happened, instead of going permanently
		// stale against an unreachable high-water mark.
		n := ss.engine.NumLearnts()
		if n > ss.learntsSeen {
			d.ClausesReused = n - ss.learntsSeen
		}
		ss.learntsSeen = n
	}
	ss.cdclCalls++
	return d
}

// guardBlock adds a blocking clause for m guarded by a fresh literal g:
// (¬g ∨ ¬m). Solving under the assumption g forbids m; without the
// assumption the clause is vacuously satisfiable and constrains nothing.
func (ss *Session) guardBlock(m bv.Assignment) sat.Lit {
	g := sat.PosLit(ss.engine.NewVar())
	clause := []sat.Lit{g.Neg()}
	for _, name := range ss.names {
		v, ok := m[name]
		if !ok {
			continue
		}
		for i, l := range ss.bl.Bits(ss.vars[name]) {
			if v>>uint(i)&1 == 1 {
				clause = append(clause, l.Neg())
			} else {
				clause = append(clause, l)
			}
		}
	}
	ss.engine.AddClause(clause...)
	return g
}
