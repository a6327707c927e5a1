package sat

import (
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
)

// Result is the outcome of a Solve call.
type Result int

// Solve outcomes.
const (
	Unknown Result = iota // conflict budget exhausted
	Sat                   // a model was found
	Unsat                 // the formula is unsatisfiable
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// Options configure a Solver.
type Options struct {
	// Seed seeds the solver's internal randomness (decision polarity and
	// occasional random decisions). Solves are deterministic per seed.
	Seed int64
	// RandomPolarity is the probability that a decision variable is assigned
	// a random phase instead of its saved phase. Non-zero values make
	// repeated solves of the same formula return diverse models.
	RandomPolarity float64
	// RandomDecisionFreq is the probability that a decision picks a random
	// unassigned variable instead of the highest-activity one.
	RandomDecisionFreq float64
	// MaxConflicts bounds the total number of conflicts before Solve gives
	// up and returns Unknown. Zero means no bound.
	MaxConflicts int64
	// RestartBase scales the Luby restart sequence: the i-th restart happens
	// after luby(i)*RestartBase conflicts. Zero means the default (100).
	// Portfolio configurations vary this to diversify search trajectories.
	RestartBase float64
	// Stop, when non-nil, is polled at every conflict: once it reads true the
	// solve returns Unknown promptly. It is how a portfolio race cancels
	// losing configurations; the solver itself stays usable afterwards.
	Stop *atomic.Bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	opts    Options
	rng     *rand.Rand
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by literal; clauses in which that literal is watched

	assigns []lbool   // per var
	level   []int32   // per var
	reason  []*clause // per var
	phase   []bool    // saved polarity per var

	trail    []Lit
	trailLim []int32
	qhead    int

	activity  []float64
	focus     []Var // decide-first variables (SetDecisionFocus)
	varInc    float64
	order     *varHeap
	claInc    float64
	seen      []bool
	scratch   []Lit // normalize's sort buffer, reused across clauses
	unsatRoot bool  // a top-level conflict was derived

	// statistics
	Conflicts    int64
	Decisions    int64
	Propagations int64
	maxLearnts   float64
}

type watcher struct {
	c       *clause
	blocker Lit
}

const (
	varDecay   = 0.95
	claDecay   = 0.999
	lubyBase   = 100.0
	learntGrow = 1.1
	learntFrac = 0.35
	rescaleAt  = 1e100
	rescaleBy  = 1e-100
)

// New returns a solver with the given options.
func New(opts Options) *Solver {
	s := &Solver{
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		varInc: 1.0,
		claInc: 1.0,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently attached
// (excluding learned clauses and root-level units).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained. On a
// persistent instance this is the knowledge carried over into the next
// Solve/SolveUnderAssumptions call.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// SetRandomPolarity adjusts the random-polarity probability for subsequent
// solve calls. Incremental sessions flip this between model *finding* (low,
// favor saved phases) and model *sampling* (high, favor diversity).
func (s *Solver) SetRandomPolarity(p float64) { s.opts.RandomPolarity = p }

// SetMaxConflicts adjusts the per-call conflict budget for subsequent solve
// calls. Portfolio solving uses it to run a cheap probe on the persistent
// engine before committing to a full race.
func (s *Solver) SetMaxConflicts(n int64) { s.opts.MaxConflicts = n }

// SetStop installs (or, with nil, removes) the cancellation flag polled at
// every conflict. See Options.Stop.
func (s *Solver) SetStop(stop *atomic.Bool) { s.opts.Stop = stop }

// SetDecisionFocus makes subsequent decisions pick the first unassigned
// variable of vars (in order) before consulting the activity heap; nil
// restores pure activity order. Restart sampling focuses decisions on the
// bit-blasted input bits: deciding the projection variables first — with
// their perturbed saved phases — makes each completion's model projection a
// direct function of the perturbation instead of a side effect of whatever
// the auxiliary variables imply, which is what turns phase flips into fresh
// models. The focus list is not copied by Clone; it is a sampling-call
// setting, not part of the logical state.
func (s *Solver) SetDecisionFocus(vars []Var) { s.focus = vars }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		return v.not()
	}
	return v
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state at the root level.
//
// AddClause may be called after a previous Solve (incremental solving): the
// solver first backtracks to decision level zero, which invalidates the model
// of that Solve. Learned clauses and saved phases are retained.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatRoot {
		return false
	}
	if len(s.trailLim) != 0 {
		s.cancelUntil(0)
	}
	out, keep := s.normalize(lits)
	if !keep {
		return true // tautology or already satisfied at root
	}
	switch len(out) {
	case 0:
		s.unsatRoot = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsatRoot = true
			return false
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// normalize sorts and dedups a clause's literals into the solver's scratch
// buffer and drops root-false ones. keep is false when the clause is a
// tautology or already satisfied at the root; otherwise out holds the
// remaining literals, aliasing the scratch buffer until the next call.
// Literals are plain integers, so the sort order is total and any sort
// yields the same clause.
func (s *Solver) normalize(lits []Lit) (out []Lit, keep bool) {
	ls := append(s.scratch[:0], lits...)
	slices.Sort(ls)
	s.scratch = ls
	out = ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Neg() {
			return nil, false // tautology
		}
		switch s.value(l) {
		case lTrue:
			return nil, false // already satisfied at root
		case lFalse:
			prev = l
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	return out, true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{c, c.lits[0]})
}

func (s *Solver) detach(c *clause) {
	s.removeWatch(c.lits[0].Neg(), c)
	s.removeWatch(c.lits[1].Neg(), c)
}

func (s *Solver) removeWatch(l Lit, c *clause) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p was just assigned true, so ¬p became false
		s.qhead++
		s.Propagations++
		falsified := p.Neg()
		// watches[p] holds the clauses in which ¬p is a watched literal
		// (attach registers each watched literal l under watches[¬l]).
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: the blocker literal is already true.
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the falsified literal is lits[1].
			if c.lits[0] == falsified {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for j := 2; j < len(c.lits); j++ {
				if s.value(c.lits[j]) != lFalse {
					c.lits[1], c.lits[j] = c.lits[j], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue // watch moved; drop from this list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				confl = c
				// Copy remaining watchers back and stop.
				for i++; i < len(ws); i++ {
					kept = append(kept, ws[i])
				}
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis and returns the learnt clause
// (first literal is the asserting literal) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{LitUndef} // slot 0 reserved for the asserting literal
	counter := 0
	p := LitUndef
	index := len(s.trail) - 1
	decLevel := int32(len(s.trailLim))

	for {
		start := 0
		if p != LitUndef {
			start = 1 // skip the propagated literal itself in reason clauses
		}
		for j := start; j < len(confl.lits); j++ {
			q := confl.lits[j]
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= decLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		index--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Backtrack level: highest level among the other literals.
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > rescaleAt {
		for i := range s.activity {
			s.activity[i] *= rescaleBy
		}
		s.varInc *= rescaleBy
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > rescaleAt {
		for _, lc := range s.learnts {
			lc.activity *= rescaleBy
		}
		s.claInc *= rescaleBy
	}
}

func (s *Solver) cancelUntil(lvl int32) {
	if int32(len(s.trailLim)) <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) decide() bool {
	var v Var = -1
	for _, f := range s.focus {
		if s.assigns[f] == lUndef {
			v = f
			break
		}
	}
	if v < 0 && s.opts.RandomDecisionFreq > 0 && s.rng.Float64() < s.opts.RandomDecisionFreq {
		// Random decision: pick an arbitrary unassigned variable.
		if n := s.NumVars(); n > 0 {
			cand := Var(s.rng.Intn(n))
			if s.assigns[cand] == lUndef {
				v = cand
			}
		}
	}
	for v < 0 {
		if s.order.empty() {
			return false
		}
		cand := s.order.removeMax()
		if s.assigns[cand] == lUndef {
			v = cand
		}
	}
	pol := s.phase[v]
	if s.opts.RandomPolarity > 0 && s.rng.Float64() < s.opts.RandomPolarity {
		pol = s.rng.Intn(2) == 0
	}
	s.Decisions++
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	s.uncheckedEnqueue(MkLit(v, !pol), nil)
	return true
}

func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].activity < s.learnts[j].activity
	})
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		locked := s.reason[c.lits[0].Var()] == c && s.value(c.lits[0]) == lTrue
		if i < limit && len(c.lits) > 2 && !locked {
			s.detach(c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) float64 {
	x := i - 1 // 0-based position
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return float64(int64(1) << uint(seq))
}

// Solve determines satisfiability of the clauses added so far. It is the
// degenerate (no-assumption) case of SolveUnderAssumptions and may be called
// repeatedly on one instance, interleaved with AddClause, to solve
// incrementally: learned clauses and saved phases carry over between calls.
func (s *Solver) Solve() Result {
	return s.SolveUnderAssumptions(nil)
}

// SolveUnderAssumptions determines satisfiability of the clauses added so
// far under the given assumption literals. Assumptions are enqueued as the
// first decisions (one per decision level, MiniSat style), so a returned
// model satisfies every assumption, and Unsat means "unsatisfiable under
// these assumptions" — the solver itself stays usable and a later call with
// different (or no) assumptions can still return Sat.
//
// The conflict budget (Options.MaxConflicts) applies per call, not per
// instance: every call gets a fresh budget, which is what makes one
// persistent instance serve a whole enforcement loop.
//
// Clauses learned during an assumption solve are implied by the clause
// database alone (assumption literals appear *in* learned clauses rather
// than being resolved away), so retaining them across calls is sound even as
// assumption sets change.
func (s *Solver) SolveUnderAssumptions(assumps []Lit) Result {
	if s.unsatRoot {
		return Unsat
	}
	s.cancelUntil(0) // invalidate any previous model; start from the root
	if c := s.propagate(); c != nil {
		s.unsatRoot = true
		return Unsat
	}
	return s.search(assumps)
}

// SolveContinue resumes the search from the current partial assignment
// instead of backtracking to the root first — the complement of
// PartialRestart, which leaves a prefix of the previous model's trail in
// place. The result contract matches Solve: the kept decisions are ordinary
// decisions, not assumptions, so the search is free to undo them through
// conflict analysis and Unsat still means root-level unsatisfiability.
func (s *Solver) SolveContinue() Result {
	if s.unsatRoot {
		return Unsat
	}
	return s.search(nil)
}

// search is the CDCL main loop, entered with the current trail consistent or
// carrying a pending conflict (which the first propagate surfaces).
func (s *Solver) search(assumps []Lit) Result {
	s.maxLearnts = float64(len(s.clauses)) * learntFrac
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	restartBase := s.opts.RestartBase
	if restartBase <= 0 {
		restartBase = lubyBase
	}
	var restarts int64
	budget := int64(restartBase * luby(restarts+1))
	conflictsThisRestart := int64(0)
	startConflicts := s.Conflicts

	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsThisRestart++
			if s.opts.Stop != nil && s.opts.Stop.Load() {
				s.cancelUntil(0)
				return Unknown
			}
			if len(s.trailLim) == 0 {
				s.unsatRoot = true
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= varDecay
			s.claInc /= claDecay
			if s.opts.MaxConflicts > 0 && s.Conflicts-startConflicts >= s.opts.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		// Establish the assumption levels before anything can declare Sat:
		// a full consistent assignment that falsifies an assumption is an
		// Unsat-under-assumptions answer, not a model.
		if len(s.trailLim) < len(assumps) {
			p := assumps[len(s.trailLim)]
			switch s.value(p) {
			case lTrue:
				// Already implied; open a dummy level so indices line up.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				// The clause database (plus earlier assumptions) forces ¬p:
				// unsat under these assumptions, but not at the root.
				s.cancelUntil(0)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.uncheckedEnqueue(p, nil)
			}
			continue
		}
		if len(s.trail) == len(s.assigns) {
			return Sat // full assignment, consistent
		}
		if conflictsThisRestart >= budget {
			restarts++
			conflictsThisRestart = 0
			budget = int64(restartBase * luby(restarts+1))
			s.cancelUntil(0)
			continue
		}
		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
			s.maxLearnts *= learntGrow
		}
		if !s.decide() {
			return Sat // no unassigned vars left
		}
	}
}

// CancelToRoot undoes all decisions, returning the solver to decision level
// zero so that further clauses can be added (incremental solving). The model
// of a prior Solve becomes invalid.
func (s *Solver) CancelToRoot() {
	s.cancelUntil(0)
}

// ModelValue returns the value of v in the model found by the last
// successful Solve. Unassigned variables (possible only before solving)
// report false.
func (s *Solver) ModelValue(v Var) bool {
	return s.assigns[v] == lTrue
}

// Model returns the full model as a slice indexed by variable.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.assigns))
	for i := range m {
		m[i] = s.assigns[i] == lTrue
	}
	return m
}

// Rerandomize backtracks to the root and re-randomizes each variable's saved
// phase with probability flip (flip >= 1 scrambles every phase). Activities,
// the decision heap and all clauses — problem and learnt alike — are
// untouched, so the next Solve walks the *learned* variable order (which is
// what keeps the solve fast) but extends assignments in a perturbed direction
// (which is what makes it land on a different model). This is the
// restart-sampling primitive: between model samples it replaces asserting a
// blocking clause and re-solving from scratch. The flip rate trades solve
// cost against sample diversity: a full scramble pays a near-cold search per
// sample (random phases fight the constraint until conflicts herd them back),
// while a small perturbation of the previous model's phases reaches a nearby
// fresh model in a handful of conflicts. Scrambling activities too costs
// another order of magnitude for no diversity the phase flips don't provide.
func (s *Solver) Rerandomize(rng *rand.Rand, flip float64) {
	s.cancelUntil(0)
	for v := range s.assigns {
		if flip >= 1 || rng.Float64() < flip {
			s.phase[v] = rng.Intn(2) == 0
		}
	}
}

// PartialRestart backtracks to a random decision level of the current trail
// (uniform over [0, depth]) and re-randomizes the saved phases of the
// now-unassigned variables with probability flip each. Together with
// SolveContinue this is the cheap restart-sampling step: the kept prefix of
// the previous model is not re-decided or re-propagated, so the cost of the
// next sample scales with the replaced suffix rather than with the whole
// variable set, and the random suffix phases steer the completion toward a
// different model. Drawing the backtrack depth fresh each time makes the
// sample sequence a random walk over the solution set: shallow backtracks
// move far, deep backtracks are nearly free.
func (s *Solver) PartialRestart(rng *rand.Rand, flip float64) {
	if len(s.trailLim) > 0 {
		s.cancelUntil(int32(rng.Intn(len(s.trailLim) + 1)))
	}
	for v := range s.assigns {
		if s.assigns[v] == lUndef && (flip >= 1 || rng.Float64() < flip) {
			s.phase[v] = rng.Intn(2) == 0
		}
	}
}

// PerturbPhases re-randomizes the saved phases of the given variables (those
// currently unassigned) with probability flip each. Restart sampling uses it
// to aim the perturbation at the variables that matter for model identity —
// the bit-blasted input bits — instead of the full variable set: flipping a
// Tseitin auxiliary variable rarely changes the input projection of the next
// model, so undirected flips mostly buy conflicts without diversity.
func (s *Solver) PerturbPhases(rng *rand.Rand, flip float64, vars []Var) {
	for _, v := range vars {
		if s.assigns[v] == lUndef && (flip >= 1 || rng.Float64() < flip) {
			s.phase[v] = rng.Intn(2) == 0
		}
	}
}

// ExportLearnts returns copies of the retained learnt clauses with at most
// maxLen literals (maxLen <= 0 means no cap). Short learnts are the ones
// worth sharing across engines: they prune the most search per watched
// literal, while long ones mostly bloat watch lists. The returned slices are
// private copies, safe to hand to another solver.
func (s *Solver) ExportLearnts(maxLen int) [][]Lit {
	var out [][]Lit
	for _, c := range s.learnts {
		if maxLen > 0 && len(c.lits) > maxLen {
			continue
		}
		out = append(out, append([]Lit(nil), c.lits...))
	}
	return out
}

// ImportLearnts adds clauses as learnt clauses (subject to reduceDB pruning
// like any other learnt) and returns how many were installed. The caller must
// guarantee soundness: every clause must be a logical consequence of this
// solver's clause database over this solver's variable numbering — which
// holds for clauses exported from a Clone of this solver, the portfolio
// learnt-sharing case. Clauses satisfied at the root are skipped; a clause
// falsified at the root marks the solver unsatisfiable.
func (s *Solver) ImportLearnts(clauses [][]Lit) int {
	n := 0
	for _, lits := range clauses {
		if s.unsatRoot {
			break
		}
		if s.importLearnt(lits) {
			n++
		}
	}
	return n
}

func (s *Solver) importLearnt(lits []Lit) bool {
	if len(s.trailLim) != 0 {
		s.cancelUntil(0)
	}
	out, keep := s.normalize(lits)
	if !keep {
		return false // tautology or satisfied at root: nothing to learn
	}
	switch len(out) {
	case 0:
		s.unsatRoot = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsatRoot = true
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...), learnt: true}
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return true
}

// Clone returns an independent solver over the same formula: identical
// variable numbering, the root-level trail replayed as unit clauses, every
// problem and learnt clause copied, and the saved phases and activities
// carried over so the clone starts warm. The clone draws its own randomness
// from opts (seed, polarity, restart base), which is what makes it a
// portfolio configuration: same knowledge, different trajectory. Clauses the
// clone learns are consequences of the original's database, so they may be
// imported back with ImportLearnts.
func (s *Solver) Clone(opts Options) *Solver {
	s.cancelUntil(0)
	n := New(opts)
	for range s.assigns {
		n.NewVar()
	}
	copy(n.phase, s.phase)
	copy(n.activity, s.activity)
	n.varInc = s.varInc
	n.order = newVarHeap(&n.activity)
	for v := range n.assigns {
		n.order.insert(Var(v))
	}
	if s.unsatRoot {
		n.unsatRoot = true
		return n
	}
	for _, l := range s.trail {
		n.AddClause(l)
	}
	for _, c := range s.clauses {
		n.AddClause(c.lits...)
	}
	for _, c := range s.learnts {
		n.importLearnt(c.lits)
	}
	return n
}
