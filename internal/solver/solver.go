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
// SampleModels implements the §5.5/§5.6 experiments: up to k *distinct*
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
// learned clauses. The stateless Solve and SampleModels remain as the
// simple API and delegate to a throwaway Session.
package solver

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"diode/internal/bv"
)

// Verdict is the outcome of a Solve call.
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

// Solve returns a model of f, or Unsat/Unknown. It is the stateless entry
// point: each call runs on a throwaway Session. Callers that solve a growing
// conjunction repeatedly (the Figure 7 enforcement loop) should hold a
// Session instead and use Assert + Solve.
func (s *Solver) Solve(f *bv.Bool) (bv.Assignment, Verdict) {
	return s.NewSession(f).Solve()
}

// concreteSearch samples random assignments, mixing uniform values with
// boundary values (0, 1, all-ones, single bits) that are likely to matter for
// overflow and comparison constraints. The formula is compiled once per call
// (bv.CompileBool) so each try is a flat-array evaluation. rng is the
// caller's private stream (the session's, for session solves).
func concreteSearch(rng *rand.Rand, f *bv.Bool, vars bv.VarSet) bv.Assignment {
	names := vars.Names()
	if len(names) == 0 {
		return nil
	}
	return concreteTries(rng, bv.CompileBool(f), vars, names, concreteTriesPerSolve)
}

// concreteTries runs the random-assignment loop against a pre-compiled
// formula.
func concreteTries(rng *rand.Rand, ce *bv.CompiledBool, vars bv.VarSet, names []string, tries int) bv.Assignment {
	m := make(bv.Assignment, len(names))
	for i := 0; i < tries; i++ {
		for _, n := range names {
			w := vars[n].W
			m[n] = randomValue(rng, w)
		}
		ok, err := ce.Eval(m)
		if err != nil {
			return nil
		}
		if ok {
			out := make(bv.Assignment, len(m))
			for k, v := range m {
				out[k] = v
			}
			return out
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

// SampleModels returns up to k distinct models of f. It is the machinery for
// the paper's "generate 200 inputs that satisfy the constraint" experiments.
// When the constraint has fewer than k solutions over its variables, every
// solution is returned (e.g. the paper's x+2 overflow with exactly two
// solutions, §5.5); the verdict says why sampling stopped (Session.SampleModels).
// Like Solve, it is the stateless entry point over a throwaway Session.
func (s *Solver) SampleModels(f *bv.Bool, k int) ([]bv.Assignment, Verdict) {
	return s.NewSession(f).SampleModels(k)
}

// modelSet collects distinct models of one constraint; the dedup key is the
// sorted-variable assignment rendering.
type modelSet struct {
	vars   bv.VarSet
	seen   map[string]bool
	models []bv.Assignment
}

func newModelSet(vars bv.VarSet) *modelSet {
	return &modelSet{vars: vars, seen: make(map[string]bool)}
}

func (ms *modelSet) add(m bv.Assignment) bool {
	key := assignmentKey(m, ms.vars)
	if ms.seen[key] {
		return false
	}
	ms.seen[key] = true
	ms.models = append(ms.models, m)
	return true
}

// concretePhase is phase 1 of sampling: concrete search, cheap, and for
// check-free constraints it finds k dense solutions almost immediately.
// No-op in ModeSATOnly. The formula is compiled once for the whole phase.
func (s *Solver) concretePhase(rng *rand.Rand, f *bv.Bool, ms *modelSet, k int) {
	if s.opts.Mode == ModeSATOnly {
		return
	}
	names := ms.vars.Names()
	if len(names) == 0 {
		return
	}
	ce := bv.CompileBool(f)
	budget := concreteTriesPerSolve * 4
	for i := 0; i < budget && len(ms.models) < k; i++ {
		if m := concreteTries(rng, ce, ms.vars, names, 1); m != nil {
			ms.add(m)
		}
	}
}

func assignmentKey(m bv.Assignment, vars bv.VarSet) string {
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(m[n], 16))
		b.WriteByte(';')
	}
	return b.String()
}
