package solver

import "sync"

// Stats is a point-in-time snapshot of solver work counters. It is a plain
// value: read it with Solver.Snapshot and combine snapshots with Add. Each
// counter is declared here and summed in Add; a solver counts by adding a
// Stats delta that sets the counters one event moves.
type Stats struct {
	ConcreteHits int // solves settled by concrete search
	SATSolves    int // solves that reached the CDCL solver
	UnsatResults int
	UnknownOut   int
	// Conflicts sums the CDCL conflicts of every engine call (solves,
	// restart draws, blocking draws): a deterministic measure of search
	// work, independent of the host's speed.
	Conflicts int64

	// Incremental-session counters.
	AssumptionSolves int // CDCL calls made under ≥1 assumption (sampling blocks)
	ModelCacheHits   int // session solves settled by re-checking an earlier model
	ClausesReused    int // learned clauses carried into later CDCL calls of a session, each counted once

	// Sampling-strategy counters.
	RestartSamples    int // models drawn by randomized-restart re-solves
	BlockingFallbacks int // restart sampling runs that fell back to blocking enumeration
	DuplicateModels   int // sampled models already in the set: routine for restarts (drives the fallback), a strategy bug for blocking

	// GenFailures counts solver models the input-reconstruction layer failed
	// to turn into an input file (Generate errors, reported by the core via
	// Solver.NoteGenFailure). A nonzero count in a success-rate experiment
	// means the measured total undercounts the sampled models — a broken
	// format fix-up, not a low success rate.
	GenFailures int
}

// Add accumulates another snapshot into s.
func (s *Stats) Add(o Stats) {
	s.ConcreteHits += o.ConcreteHits
	s.SATSolves += o.SATSolves
	s.UnsatResults += o.UnsatResults
	s.UnknownOut += o.UnknownOut
	s.Conflicts += o.Conflicts
	s.AssumptionSolves += o.AssumptionSolves
	s.ModelCacheHits += o.ModelCacheHits
	s.ClausesReused += o.ClausesReused
	s.RestartSamples += o.RestartSamples
	s.BlockingFallbacks += o.BlockingFallbacks
	s.DuplicateModels += o.DuplicateModels
	s.GenFailures += o.GenFailures
}

// tally is a Solver's running Stats total; safe for concurrent use. Counting
// happens once per solve or sample, so a mutex costs nothing measurable.
type tally struct {
	mu    sync.Mutex
	total Stats
}

// add folds a delta into the total.
func (t *tally) add(d Stats) {
	t.mu.Lock()
	t.total.Add(d)
	t.mu.Unlock()
}

// snapshot returns a copy of the total.
func (t *tally) snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
