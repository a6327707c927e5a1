package sat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
)

// Result is the outcome of a SolveUnderAssumptions or SolveContinue call.
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

// cref names a clause: the offset of its header word in the solver's arena.
type cref uint32

// crefUndef is the "no clause" reference: the reason of a decision, an
// assumption, a unit or an unassigned variable, and propagate's "no
// conflict".
const crefUndef cref = math.MaxUint32

// A clause's header word is size<<hdrShift | hdrFreed | hdrLearnt. Its size
// literals follow it, and a learnt clause ends with actWords words holding
// the bits of its float64 activity.
const (
	hdrLearnt = 1
	hdrFreed  = 2
	hdrShift  = 2
	actWords  = 2
)

// Options configure a Solver.
type Options struct {
	// Seed seeds the solver's internal randomness (random decision
	// polarities). Solves are deterministic per seed.
	Seed int64
	// RandomPolarity is the probability that a decision variable is assigned
	// a random phase instead of its saved phase. Non-zero values make
	// repeated solves of the same formula return diverse models.
	RandomPolarity float64
	// MaxConflicts bounds the number of conflicts one solve call may take
	// before it gives up and returns Unknown. Zero means no bound.
	MaxConflicts int64
	// Stop, when non-nil, is polled at every conflict: once it reads true the
	// solve returns Unknown promptly. It is how a caller cancels a running
	// solve from another goroutine; the solver itself stays usable
	// afterwards.
	Stop *atomic.Bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New, or
// Reset to recycle a solver's storage for a new instance.
type Solver struct {
	opts        Options
	rng         *rand.Rand
	arena       []Lit // every clause, header then literals (see the package doc)
	wasted      int   // words of freed clauses still in arena
	compactions int   // times compact has rebuilt arena
	numClauses  int   // problem clauses attached
	learnts     []cref
	watches     [][]watcher // indexed by literal; clauses in which that literal is watched

	vals   []lbool // per literal
	level  []int32 // per var
	reason []cref  // per var
	phase  []bool  // saved polarity per var

	trail    []Lit
	trailLim []int32
	qhead    int

	activity  []float64
	focus     []Var // decide-first variables (SetDecisionFocus)
	focusEnd  int64 // Conflicts count at which the focus lapses
	varInc    float64
	order     *varHeap
	claInc    float64
	seen      []bool
	scratch   []Lit // normalize's sort buffer, reused across clauses
	learnt    []Lit // analyze's learnt clause, reused across conflicts
	unsatRoot bool  // a top-level conflict was derived

	// statistics
	Conflicts    int64
	Decisions    int64
	Propagations int64
	maxLearnts   float64
}

// watcher is one entry of a watch list. It holds no pointer, so watch
// lists are never scanned by the garbage collector and propagate writes them
// without write barriers.
type watcher struct {
	c       cref
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
	s := new(Solver)
	s.Reset(opts)
	return s
}

// Reset returns s to the state New(opts) gives: no variables, no clauses,
// zeroed counters, and a random stream reseeded to the one a fresh solver
// draws. It keeps the capacity of every slice, each literal's watch list
// included, so a recycled solver reaches its next instance's size without
// growing. Capacity never enters a decision, so a Reset solver runs every
// instance exactly as a fresh one does.
func (s *Solver) Reset(opts Options) {
	rng, order := s.rng, s.order
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		rng.Seed(opts.Seed)
	}
	if order == nil {
		order = new(varHeap)
	}
	// Every field not named here returns to its zero value: the counters,
	// the arena's waste and compaction count, the decision focus and the
	// root-conflict flag.
	*s = Solver{
		opts:     opts,
		rng:      rng,
		arena:    s.arena[:0],
		learnts:  s.learnts[:0],
		watches:  s.watches[:0],
		vals:     s.vals[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		phase:    s.phase[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		varInc:   1.0,
		order:    order,
		claInc:   1.0,
		seen:     s.seen[:0],
		scratch:  s.scratch[:0],
		learnt:   s.learnt[:0],
	}
	order.reset(&s.activity)
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(reserve(s.vals, 2), lUndef, lUndef)
	s.level = append(reserve(s.level, 1), 0)
	s.reason = append(reserve(s.reason, 1), crefUndef)
	s.phase = append(reserve(s.phase, 1), false)
	s.activity = append(reserve(s.activity, 1), 0)
	s.seen = append(reserve(s.seen, 1), false)
	// The watch lists past len(s.watches) are those of an instance before
	// Reset: reuse their storage, emptied, rather than start from nil.
	s.watches = reserve(s.watches, 2)
	n := len(s.watches)
	s.watches = s.watches[:n+2]
	s.watches[n], s.watches[n+1] = s.watches[n][:0], s.watches[n+1][:0]
	s.order.insert(v)
	return v
}

// reserve returns s with room for n more elements. When s has to
// reallocate, its capacity at least doubles: append grows a long slice by
// about 1.25x, so a slice built one element at a time allocates about five
// times its final size, against about twice under doubling. Capacity never
// enters a decision, so the growth policy leaves every search unchanged.
func reserve[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)-len(s)))
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// NumLearnts returns the number of learned clauses currently retained. On a
// persistent instance this is the knowledge carried over into the next
// Solve/SolveUnderAssumptions call.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// SetRandomPolarity adjusts the random-polarity probability for subsequent
// solve calls. Incremental sessions flip this between model *finding* (low,
// favor saved phases) and model *sampling* (high, favor diversity).
func (s *Solver) SetRandomPolarity(p float64) { s.opts.RandomPolarity = p }

// SetDecisionFocus makes decisions pick the first unassigned variable of
// vars (in order) before consulting the activity heap, for the next
// conflicts conflicts; after that the focus lapses and decisions return to
// pure activity order. nil or a zero budget restores activity order at once.
// Restart sampling focuses decisions on the bit-blasted input bits: deciding
// the projection variables first — with their perturbed saved phases — makes
// each completion's model projection a direct function of the perturbation
// instead of a side effect of whatever the auxiliary variables imply, which
// is what turns phase flips into fresh models. The budget bounds the price
// of that order on a formula with no models left to find: a focused search
// refutes it by enumerating input assignments, the activity order by
// learning from the conflicts.
func (s *Solver) SetDecisionFocus(vars []Var, conflicts int64) {
	s.focus = vars
	s.focusEnd = s.Conflicts + conflicts
}

func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// varValue is the value of v's positive literal.
func (s *Solver) varValue(v Var) lbool { return s.vals[PosLit(v)] }

// size returns the number of literals of clause c.
func (s *Solver) size(c cref) int { return int(uint32(s.arena[c]) >> hdrShift) }

// lits returns clause c's literals, aliasing the arena.
func (s *Solver) lits(c cref) []Lit {
	start := int(c) + 1
	return s.arena[start : start+s.size(c)]
}

// words returns the arena words clause c occupies, header included.
func (s *Solver) words(c cref) int {
	return 1 + s.size(c) + int(s.arena[c]&hdrLearnt)*actWords
}

// alloc appends a clause to the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	n := 1 + len(lits)
	hdr := uint32(len(lits)) << hdrShift
	if learnt {
		n += actWords
		hdr |= hdrLearnt
	}
	if !arenaFits(len(s.arena), len(lits), n) {
		panic(fmt.Sprintf("sat: clause arena full: a %d-literal clause at word %d would pass the 2^32-word limit of a clause reference", len(lits), len(s.arena)))
	}
	c := cref(len(s.arena))
	s.arena = append(reserve(s.arena, n), Lit(hdr))
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0)
	}
	return c
}

// arenaFits reports whether a clause of size literals, n words in all, can
// go at arena offset used: the size must fit its header and every cref
// must stay below crefUndef.
func arenaFits(used, size, n int) bool {
	return size < 1<<(32-hdrShift) && uint64(used)+uint64(n) <= uint64(crefUndef)
}

// claActivity returns learnt clause c's activity.
func (s *Solver) claActivity(c cref) float64 {
	i := int(c) + 1 + s.size(c)
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setClaActivity(c cref, a float64) {
	i := int(c) + 1 + s.size(c)
	b := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// free marks clause c dead; its words stay in the arena until compact.
func (s *Solver) free(c cref) {
	s.arena[c] |= hdrFreed
	s.wasted += s.words(c)
}

// compact rebuilds the arena from its live clauses, copied in arena order,
// and remaps every reference: watchers in place, so each watch list keeps
// its order, then reasons and learnts. None of them names a freed clause:
// detach drops a freed clause's watchers, and reduceDB frees no reason and
// keeps no freed clause in learnts.
func (s *Solver) compact() {
	to := make([]Lit, 0, len(s.arena)-s.wasted)
	for c := 0; c < len(s.arena); {
		n := s.words(cref(c))
		if s.arena[c]&hdrFreed == 0 {
			to = append(to, s.arena[c:c+n]...)
			s.arena[c+1] = Lit(len(to) - n) // forwarding address, over the first literal
		}
		c += n
	}
	fwd := func(c cref) cref { return cref(s.arena[c+1]) }
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = fwd(ws[i].c)
		}
	}
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v] = fwd(r)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = fwd(c)
	}
	s.arena, s.wasted = to, 0
	s.compactions++
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state at the root level.
//
// AddClause may be called after a previous solve (incremental solving): the
// solver first backtracks to decision level zero, which invalidates the model
// of that solve. Learned clauses and saved phases are retained.
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
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.unsatRoot = true
			return false
		}
		return true
	}
	s.numClauses++
	s.attach(s.alloc(out, false))
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

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{c, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{c, l0})
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	s.removeWatch(lits[0].Neg(), c)
	s.removeWatch(lits[1].Neg(), c)
}

func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l], s.vals[l.Neg()] = lTrue, lFalse
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p was just assigned true, so ¬p became false
		s.qhead++
		s.Propagations++
		falsified := p.Neg()
		// watches[p] holds the clauses in which ¬p is a watched literal
		// (attach registers each watched literal l under watches[¬l]).
		// Watchers that stay are compacted to the front in their order.
		ws := s.watches[p]
		kept := 0
		confl := crefUndef
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: the blocker literal is already true.
			if s.value(w.blocker) == lTrue {
				ws[kept] = w
				kept++
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Ensure the falsified literal is lits[1].
			if lits[0] == falsified {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[kept] = watcher{c, first}
				kept++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for j := 2; j < len(lits); j++ {
				if s.value(lits[j]) != lFalse {
					lits[1], lits[j] = lits[j], lits[1]
					nw := lits[1].Neg()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue // watch moved; drop from this list
			}
			// Clause is unit or conflicting.
			ws[kept] = watcher{c, first}
			kept++
			if s.value(first) == lFalse {
				confl = c
				// Keep the remaining watchers and stop.
				kept += copy(ws[kept:], ws[i+1:])
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:kept]
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis. It leaves the learnt clause
// in s.learnt, asserting literal first, and returns the backtrack level.
func (s *Solver) analyze(confl cref) int32 {
	learnt := append(s.learnt[:0], LitUndef) // slot 0 reserved for the asserting literal
	counter := 0
	p := LitUndef
	index := len(s.trail) - 1
	decLevel := int32(len(s.trailLim))

	for {
		start := 0
		if p != LitUndef {
			start = 1 // skip the propagated literal itself in reason clauses
		}
		lits := s.lits(confl)
		for j := start; j < len(lits); j++ {
			q := lits[j]
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
	s.learnt = learnt
	return bt
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

func (s *Solver) bumpClause(c cref) {
	a := s.claActivity(c) + s.claInc
	s.setClaActivity(c, a)
	if a > rescaleAt {
		for _, lc := range s.learnts {
			s.setClaActivity(lc, s.claActivity(lc)*rescaleBy)
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
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign() // l is the true literal
		s.vals[l], s.vals[l.Neg()] = lUndef, lUndef
		s.reason[v] = crefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) decide() bool {
	var v Var = -1
	if s.Conflicts < s.focusEnd {
		for _, f := range s.focus {
			if s.varValue(f) == lUndef {
				v = f
				break
			}
		}
	}
	for v < 0 {
		if s.order.empty() {
			return false
		}
		cand := s.order.removeMax()
		if s.varValue(cand) == lUndef {
			v = cand
		}
	}
	pol := s.phase[v]
	if s.opts.RandomPolarity > 0 && s.rng.Float64() < s.opts.RandomPolarity {
		pol = s.rng.Intn(2) == 0
	}
	s.Decisions++
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	s.uncheckedEnqueue(MkLit(v, !pol), crefUndef)
	return true
}

// reduceDB deletes the less active half of the learnt clauses, sparing
// binary clauses and reasons, and compacts the arena once freed clauses
// fill more than half of it.
func (s *Solver) reduceDB() {
	// The sort is unstable: learnts' order going in, and this algorithm,
	// decide which of equally active clauses go.
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.claActivity(s.learnts[i]) < s.claActivity(s.learnts[j])
	})
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		lits := s.lits(c)
		locked := s.reason[lits[0].Var()] == c && s.value(lits[0]) == lTrue
		if i < limit && len(lits) > 2 && !locked {
			s.detach(c)
			s.free(c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
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
	if s.propagate() != crefUndef {
		s.unsatRoot = true
		return Unsat
	}
	return s.search(assumps)
}

// SolveContinue resumes the search from the current partial assignment
// instead of backtracking to the root first — the complement of
// PartialRestart, which leaves a prefix of the previous model's trail in
// place. The result contract matches SolveUnderAssumptions(nil): the kept
// decisions are ordinary decisions, not assumptions, so the search is free to
// undo them through conflict analysis and Unsat still means root-level
// unsatisfiability.
func (s *Solver) SolveContinue() Result {
	if s.unsatRoot {
		return Unsat
	}
	return s.search(nil)
}

// search is the CDCL main loop, entered with the current trail consistent or
// carrying a pending conflict (which the first propagate surfaces).
func (s *Solver) search(assumps []Lit) Result {
	s.maxLearnts = float64(s.numClauses) * learntFrac
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	var restarts int64
	budget := int64(lubyBase * luby(restarts+1))
	conflictsThisRestart := int64(0)
	startConflicts := s.Conflicts

	for {
		confl := s.propagate()
		if confl != crefUndef {
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
			s.cancelUntil(s.analyze(confl))
			if learnt := s.learnt; len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.alloc(learnt, true)
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
				s.uncheckedEnqueue(p, crefUndef)
			}
			continue
		}
		if len(s.trail) == s.NumVars() {
			return Sat // full assignment, consistent
		}
		if conflictsThisRestart >= budget {
			restarts++
			conflictsThisRestart = 0
			budget = int64(lubyBase * luby(restarts+1))
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

// ModelValue returns the value of v in the model found by the last
// successful solve. Unassigned variables (possible only before solving)
// report false.
func (s *Solver) ModelValue(v Var) bool {
	return s.varValue(v) == lTrue
}

// Model returns the full model as a slice indexed by variable.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.varValue(Var(v)) == lTrue
	}
	return m
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
	for v := range s.phase {
		if s.varValue(Var(v)) == lUndef && (flip >= 1 || rng.Float64() < flip) {
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
		if s.varValue(v) == lUndef && (flip >= 1 || rng.Float64() < flip) {
			s.phase[v] = rng.Intn(2) == 0
		}
	}
}
