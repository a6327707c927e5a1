// Package core implements DIODE itself: the pipeline of Figure 1 (target
// site identification, target constraint extraction, branch constraint
// extraction, target constraint solution, test input generation, error
// detection) and the goal-directed conditional branch enforcement algorithm
// of Figure 7.
//
// The pipeline is split into two layers:
//
//   - the Analyzer runs stages 1–3 once per application and produces
//     immutable Targets (a target expression, the target constraint
//     overflow(B), and the seed's relevant branch condition sequence);
//   - a Hunter runs the Figure 7 enforcement loop for one site, owning a
//     private solver and input generator so hunts are isolated.
//
// A site's verdict is defined by one Hunter, seeded with
// Options.ForSite(site), hunting that site's Target. Fanning hunts out is
// not this package's job: internal/dispatch turns each site into a
// serializable Job and runs it on a backend, and because every hunt is
// seeded per site (SiteSeed), placement and order never change a verdict.
package core

import (
	"time"

	"diode/internal/apps"
	"diode/internal/bv"
	"diode/internal/discover"
	"diode/internal/interp"
	"diode/internal/trace"
)

// Target is one analyzed target site: the output of stages 1–3 of the
// pipeline for that site. Targets are immutable once produced by the
// Analyzer and safe to share across concurrent Hunters.
type Target struct {
	// Site is the allocation-site name.
	Site string
	// Info is the structured discovery record for the site (kind,
	// function, stable node path, rendered expression, static taint
	// sources), attached by the Analyzer from the static discovery pass.
	Info discover.Site
	// RelevantBytes are the seed-input byte offsets that influence the
	// target value (stage 1).
	RelevantBytes []int
	// Expr is the symbolic target expression over input fields (stage 2+3,
	// after Hachoir lifting).
	Expr *bv.Term
	// Beta is the target constraint overflow(Expr).
	Beta *bv.Bool
	// SeedPath is the compressed, relevance-filtered branch condition
	// sequence φ the seed followed to the site, over input fields.
	SeedPath trace.Path
	// RawSeedBranches is the seed's uncompressed relevant branch record
	// sequence up to the site (labels + directions), used to locate first
	// flipped branches by trace comparison.
	RawSeedBranches []interp.BranchRecord
	// DynamicBranches is the paper's Y value: the number of dynamic
	// relevant conditional branch executions on the seed path to the site.
	DynamicBranches int

	// Derived lookup structures, computed once by the Analyzer (finalize)
	// so the per-iteration hot paths of the enforcement loop do not rebuild
	// them. Hand-built Targets may leave them nil; the accessors fall back
	// to recomputing on the fly.
	branchOrder []string          // relevant branch labels in first-occurrence seed order
	seedDirs    map[string]dirSet // per-label directions the seed run took
	pathIndex   map[string]int    // label → index into SeedPath
}

// WithInfo returns a shallow copy of the target carrying a different
// discovery record. The dispatch layer re-stamps probe-program targets with
// the original arith site's record (kind, path, triage) so the Hunter and
// reports see the arith site, not the synthetic probe allocation.
func (t *Target) WithInfo(info discover.Site) *Target {
	out := *t
	out.Info = info
	return &out
}

// finalize computes the derived lookup structures. The Analyzer calls it
// once per Target, before the Target is shared with concurrent Hunters.
func (t *Target) finalize() {
	t.branchOrder, t.seedDirs = seedBranchDirs(t.RawSeedBranches)
	t.pathIndex = make(map[string]int, len(t.SeedPath))
	for i, e := range t.SeedPath {
		if _, ok := t.pathIndex[e.Label]; !ok {
			t.pathIndex[e.Label] = i
		}
	}
}

// seedBranchDirs folds raw branch records into first-occurrence label order
// and the per-label direction set.
func seedBranchDirs(recs []interp.BranchRecord) ([]string, map[string]dirSet) {
	var order []string
	dirs := make(map[string]dirSet, len(recs))
	for _, br := range recs {
		d, ok := dirs[br.Label]
		if !ok {
			order = append(order, br.Label)
		}
		if br.Taken {
			d.t = true
		} else {
			d.f = true
		}
		dirs[br.Label] = d
	}
	return order, dirs
}

// seedBranchView returns the precomputed order and direction sets, deriving
// them on the fly for Targets that never went through the Analyzer.
func (t *Target) seedBranchView() ([]string, map[string]dirSet) {
	if t.seedDirs != nil {
		return t.branchOrder, t.seedDirs
	}
	return seedBranchDirs(t.RawSeedBranches)
}

// PathEntry returns the seed-path entry for a branch label. It replaces the
// linear scans Hunt and EnforcedConstraint used to perform per iteration.
func (t *Target) PathEntry(label string) (trace.Entry, bool) {
	if t.pathIndex != nil {
		i, ok := t.pathIndex[label]
		if !ok {
			return trace.Entry{}, false
		}
		return t.SeedPath[i], true
	}
	for _, e := range t.SeedPath {
		if e.Label == label {
			return e, true
		}
	}
	return trace.Entry{}, false
}

// Verdict classifies the outcome of a hunt at one site.
type Verdict int

// Hunt verdicts.
const (
	VerdictExposed   Verdict = iota // an overflow-triggering input was found
	VerdictUnsat                    // the target constraint alone is unsatisfiable
	VerdictPrevented                // sanity checks prevent the overflow
	VerdictUnknown                  // solver budget exhausted before a decision
)

func (v Verdict) String() string {
	switch v {
	case VerdictExposed:
		return "exposed"
	case VerdictUnsat:
		return "unsatisfiable"
	case VerdictPrevented:
		return "sanity-prevented"
	}
	return "unknown"
}

// Class converts the verdict to the Table 1 classification (Unknown maps to
// Prevented, with the verdict preserved for honesty).
func (v Verdict) Class() apps.Class {
	switch v {
	case VerdictExposed:
		return apps.ClassExposed
	case VerdictUnsat:
		return apps.ClassUnsat
	}
	return apps.ClassPrevented
}

// SiteResult is the outcome of hunting one target site.
type SiteResult struct {
	Target  *Target
	Verdict Verdict
	// Input is the overflow-triggering input file (VerdictExposed only).
	Input []byte
	// ErrorType describes the observable effect of the overflow, e.g.
	// "SIGSEGV/InvalidWrite" (VerdictExposed only).
	ErrorType string
	// Enforced lists the labels of the conditional branches enforced before
	// the overflow fired (or before the search concluded).
	Enforced []string
	// Discovery is the wall-clock time of the hunt for this site.
	Discovery time.Duration
	// Runs counts guest executions performed during the hunt.
	Runs int
}

// EnforcedCount returns the paper's X value.
func (r *SiteResult) EnforcedCount() int { return len(r.Enforced) }

// AppResult is the outcome of analyzing and hunting every site of one
// application.
type AppResult struct {
	App *apps.App
	// Analysis is the stage 1–3 wall-clock time (performed once per app).
	Analysis time.Duration
	Sites    []*SiteResult
}

// ResultFor returns the site result for the named site.
func (r *AppResult) ResultFor(site string) (*SiteResult, bool) {
	for _, s := range r.Sites {
		if s.Target.Site == site {
			return s, true
		}
	}
	return nil, false
}
