// Package solver is the constraint-solving facade DIODE calls where the paper
// calls Z3 (§4.3): given a bitvector formula over input fields it produces a
// satisfying assignment, a proof of unsatisfiability, or (under a conflict
// budget) "unknown".
//
// The solver is hybrid. It first tries randomized concrete search — sample
// assignments and evaluate the formula directly — which is very fast when the
// solution set is dense (typical for raw overflow constraints: most large
// field values overflow a multiplication). When concrete search fails it
// falls back to the complete bit-blasting decision procedure, which is what
// settles unsatisfiable target constraints (17 of the paper's 40 sites) and
// finds the needle-in-a-haystack solutions that enforcement constraints
// produce.
//
// Session.SampleModels implements the §5.5/§5.6 experiments: up to k *distinct*
// models of a constraint. The default strategy is restart sampling — between
// models the persistent engine re-randomizes decision polarities and variable
// activities and re-solves from the root, which keeps every solve cheap — and
// guard-literal blocking enumeration remains as the fallback that certifies
// exhaustion once restarts stop producing fresh models (and as the reference
// strategy tests and BenchmarkSampleModels select, Options.Sampling).
//
// The unit of solving is the Session: an incremental context over a
// monotonically growing conjunction, holding one persistent CDCL engine and
// one hash-consed blaster so that the Figure 7 enforcement loop re-encodes
// only the newly conjoined branch constraint each iteration and keeps all
// learned clauses. A one-shot query is a session over one formula:
// s.NewSession(f).Solve() or s.NewSession(f).SampleModels(k).
package solver

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"diode/internal/bv"
)

// Verdict is the outcome of a Session.Solve or Session.SampleModels call.
type Verdict int

// Solve outcomes.
const (
	Unknown Verdict = iota
	Sat
	Unsat
)

func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Mode selects the solving strategy. The pipeline always solves hybrid;
// SAT-only runs are the reference the solver tests and BenchmarkSampleModels
// use.
type Mode int

// Solving strategies.
const (
	ModeHybrid  Mode = iota // concrete sampling first, then bit-blasting
	ModeSATOnly             // always bit-blast
)

// concreteTriesPerSolve is the number of random assignments the concrete
// phase evaluates before a solve falls back to bit-blasting (SampleModels'
// concrete phase evaluates four times as many).
const concreteTriesPerSolve = 4096

// Sampling selects the model-enumeration strategy SampleModels uses once the
// concrete phase runs dry. The pipeline always samples by restarts; blocking
// is the reference the solver tests and BenchmarkSampleModels use.
type Sampling int

// Sampling strategies.
const (
	// SamplingRestart (the default) keeps one persistent engine and performs
	// a cheap randomized restart between samples — re-randomized decision
	// polarities and variable activities, backtrack to the root — instead of
	// asserting a blocking clause and re-solving from scratch. Guard-literal
	// blocking is still used, but only to *certify* exhaustion when restarts
	// stop producing fresh models.
	SamplingRestart Sampling = iota
	// SamplingBlocking is the canonical enumerate-and-block sequence: every
	// found model is blocked through a guard literal and the engine re-solves
	// under the guard assumptions. Kept as the reference baseline
	// (BenchmarkSampleModels compares the two).
	SamplingBlocking
)

// Options configure a Solver.
type Options struct {
	// Seed seeds all randomness. Identical inputs and seeds give identical
	// results.
	Seed int64
	// MaxConflicts bounds the CDCL search per solve. Zero means the default
	// (500000).
	MaxConflicts int64
	// Mode selects the strategy; the zero value is ModeHybrid.
	Mode Mode
	// Sampling selects the SampleModels enumeration strategy; the zero value
	// is SamplingRestart.
	Sampling Sampling
}

// Solver solves bitvector formulas. It is safe for concurrent use: the work
// counters sit behind a mutex and each Session owns a private random stream
// derived from (Seed, session ordinal), so concurrent sessions never contend
// on shared state. Session ordinals are handed out in NewSession call order, so
// for reproducible runs create one Solver per goroutine (as the core Hunter
// does) and give each a derived seed — concurrent NewSession calls on one
// Solver are race-free but their ordinal order follows the scheduler.
type Solver struct {
	opts     Options
	sessions atomic.Int64 // ordinal source for per-session RNG derivation
	stats    tally
	stop     atomic.Bool // polled by every session engine at each conflict (StopOn)
}

// New returns a Solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 500000
	}
	return &Solver{opts: opts}
}

// sessionSeed derives the private RNG seed of the ordinal-th session from the
// solver seed (splitmix64 finalizer), so every session draws from a stream
// that is a pure function of (solver seed, session ordinal) — no session ever
// contends on, or perturbs, another session's randomness.
func sessionSeed(seed, ordinal int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(ordinal)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// StopOn arms the solver's stop flag from ctx and returns the function that
// disarms it. Every CDCL engine of every session polls the flag at each
// conflict, so once ctx is done a running Solve or SampleModels call returns
// Unknown within one conflict instead of running out its conflict budget.
// Arming clears the flag first, so one Solver can serve several contexts in
// turn; release must run before the solver is armed again. A stopped result
// is an artifact of the cancellation, not a verdict: callers check ctx.Err()
// before trusting an Unknown.
func (s *Solver) StopOn(ctx context.Context) (release func()) {
	s.stop.Store(false)
	fired := make(chan struct{})
	disarm := context.AfterFunc(ctx, func() {
		s.stop.Store(true)
		close(fired)
	})
	return func() {
		if !disarm() {
			<-fired // the callback already started: let it finish before a re-arm
		}
	}
}

// Snapshot returns a point-in-time copy of the cumulative work counters.
func (s *Solver) Snapshot() Stats { return s.stats.snapshot() }

// NoteGenFailure records that a model this solver produced could not be
// reconstructed into an input file (inputgen.Generator.Generate failed). The
// core reports these so success-rate totals can document how many sampled
// models were lost to generation rather than counted as non-triggering.
func (s *Solver) NoteGenFailure() { s.stats.add(Stats{GenFailures: 1}) }

// sampler is the concrete search of one call: the formula compiled once with
// its variables bound to slots in sorted-name order (bv.CompileBool), their
// widths, and a value vector reused across tries. A try draws one
// randomValue per variable in that order (so the models a seed yields depend
// on the variable names, never on map iteration), evaluates without touching
// a map, and builds a bv.Assignment only on a hit.
type sampler struct {
	ce     *bv.CompiledBool
	names  []string
	widths []uint8
	vals   []uint64
}

// newSampler compiles f over names, the sorted names of vars (which must
// cover every free variable of f).
func newSampler(f *bv.Bool, names []string, vars bv.VarSet) *sampler {
	sp := &sampler{
		ce:     bv.CompileBool(f, names),
		names:  names,
		widths: make([]uint8, len(names)),
		vals:   make([]uint64, len(names)),
	}
	for i, n := range names {
		sp.widths[i] = vars[n].W
	}
	return sp
}

// try draws one random assignment and returns it if it satisfies the
// formula, nil otherwise. A failing try allocates nothing.
func (sp *sampler) try(rng *rand.Rand) bv.Assignment {
	for i, w := range sp.widths {
		sp.vals[i] = randomValue(rng, w)
	}
	if !sp.ce.Eval(sp.vals) {
		return nil
	}
	m := make(bv.Assignment, len(sp.names))
	for i, n := range sp.names {
		m[n] = sp.vals[i]
	}
	return m
}

// concreteSearch samples up to concreteTriesPerSolve random assignments,
// mixing uniform values with boundary values (0, 1, all-ones, single bits)
// that are likely to matter for overflow and comparison constraints, and
// returns the first that satisfies f. names are the sorted names of vars,
// which covers f's free variables. rng is the caller's private stream (the
// session's, for session solves).
func concreteSearch(rng *rand.Rand, f *bv.Bool, names []string, vars bv.VarSet) bv.Assignment {
	if len(names) == 0 {
		return nil
	}
	sp := newSampler(f, names, vars)
	for i := 0; i < concreteTriesPerSolve; i++ {
		if m := sp.try(rng); m != nil {
			return m
		}
	}
	return nil
}

func randomValue(rng *rand.Rand, w uint8) uint64 {
	mask := bv.Mask(w)
	switch rng.Intn(8) {
	case 0:
		// Boundary values.
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return mask
		default:
			return mask - 1
		}
	case 1:
		// A single set bit.
		return (uint64(1) << uint(rng.Intn(int(w)))) & mask
	case 2:
		// Small value.
		return uint64(rng.Intn(256)) & mask
	default:
		return rng.Uint64() & mask
	}
}

// modelSet collects distinct models of one constraint; the dedup key is the
// sorted-variable assignment rendering.
type modelSet struct {
	names  []string // sorted variable names of the constraint
	seen   map[string]bool
	models []bv.Assignment
}

func newModelSet(names []string) *modelSet {
	return &modelSet{names: names, seen: make(map[string]bool)}
}

func (ms *modelSet) add(m bv.Assignment) bool {
	key := assignmentKey(m, ms.names)
	if ms.seen[key] {
		return false
	}
	ms.seen[key] = true
	ms.models = append(ms.models, m)
	return true
}

// concretePhase is phase 1 of sampling: concrete search, cheap, and for
// check-free constraints it finds k dense solutions almost immediately.
// No-op in ModeSATOnly. One sampler serves the whole phase; vars covers f's
// free variables and ms.names are its sorted names.
func (s *Solver) concretePhase(rng *rand.Rand, f *bv.Bool, vars bv.VarSet, ms *modelSet, k int) {
	if s.opts.Mode == ModeSATOnly || len(ms.names) == 0 {
		return
	}
	sp := newSampler(f, ms.names, vars)
	budget := concreteTriesPerSolve * 4
	for i := 0; i < budget && len(ms.models) < k; i++ {
		if m := sp.try(rng); m != nil {
			ms.add(m)
		}
	}
}

// assignmentKey renders m over the sorted variable names, the dedup key of a
// model.
func assignmentKey(m bv.Assignment, names []string) string {
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(m[n], 16))
		b.WriteByte(';')
	}
	return b.String()
}
