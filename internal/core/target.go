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
// SiteSeed(SiteSeed(seed, app), site) for run seed seed, hunting that
// site's Target. Fanning hunts out is not this package's job:
// dispatch.SiteJob turns each site into a serializable Job carrying that
// seed and a backend runs it, and because every hunt is seeded per site,
// placement and order never change a verdict.
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
	// Expr is the symbolic target expression over input fields (stages 2–3),
	// recorded by a run that read each relevant byte as its field-level
	// term.
	Expr *bv.Term
	// Beta is the target constraint overflow(Expr).
	Beta *bv.Bool
	// SeedPath is the compressed, relevance-filtered branch condition
	// sequence φ the seed followed to the site, over input fields.
	SeedPath trace.Path
	// DynamicBranches is the paper's Y value: the number of dynamic
	// relevant conditional branch executions on the seed path to the site.
	DynamicBranches int

	// Lookup structures derived once by newTarget, so the per-iteration
	// hot paths of the enforcement loop do not rebuild them. The first two
	// fold the seed's raw relevant branch records up to the site (labels
	// and directions), which locate first flipped branches by trace
	// comparison.
	branchOrder []string          // relevant branch labels in first-occurrence seed order
	seedDirs    map[string]dirSet // per-label directions the seed run took
	pathIndex   map[string]int    // label → index into SeedPath

	// symbolic is the interp.Options.Symbolic table the analysis ran with:
	// the relevant bytes, each as its field-level term. The Hunter's
	// branch-trace runs read inputs through it too, so they record a branch
	// exactly when its operands depend on a relevant byte, as the seed run
	// did.
	symbolic []*bv.Term
}

// newTarget builds an analyzed Target from the symbolic table the analysis
// ran with, the seed run's raw relevant branch records up to the site (raw)
// and the seed path, deriving the lookup structures before the Target is
// shared with concurrent Hunters. It is the only constructor; raw is not
// retained.
func newTarget(info discover.Site, relevant []int, symbolic []*bv.Term, expr *bv.Term, beta *bv.Bool, path trace.Path, raw []interp.BranchRecord) *Target {
	t := &Target{
		Site:            info.Name,
		Info:            info,
		RelevantBytes:   relevant,
		Expr:            expr,
		Beta:            beta,
		SeedPath:        path,
		DynamicBranches: len(raw),
		symbolic:        symbolic,
	}
	t.branchOrder, t.seedDirs = seedBranchDirs(raw)
	t.pathIndex = make(map[string]int, len(path))
	for i, e := range path {
		if _, ok := t.pathIndex[e.Label]; !ok {
			t.pathIndex[e.Label] = i
		}
	}
	return t
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

// PathEntry returns the seed-path entry for a branch label. It replaces the
// linear scans the hunt loop and EnforcedConstraintFor used to perform per
// iteration.
func (t *Target) PathEntry(label string) (trace.Entry, bool) {
	i, ok := t.pathIndex[label]
	if !ok {
		return trace.Entry{}, false
	}
	return t.SeedPath[i], true
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
