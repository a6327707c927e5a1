package core

import (
	"context"
	"time"

	"diode/internal/bv"
	"diode/internal/discover"
	"diode/internal/interp"
	"diode/internal/solver"
)

// HuntContext runs the goal-directed conditional branch enforcement
// algorithm of Figure 7 against one target site:
//
//  1. Solve the target constraint β alone; if a generated input triggers the
//     overflow at the site, done (lines 3–6).
//  2. Otherwise compress φ, keep the relevant entries (lines 7–8; done once
//     during analysis), and repeat: find the first relevant conditional
//     branch where the generated input's path diverges from the seed's,
//     conjoin that branch's constraint into φ′, and re-solve φ′∧β
//     (lines 10–16) — until an input triggers the overflow, the constraint
//     becomes unsatisfiable, or the input follows the seed path with no
//     overflow.
//
// The first flipped branch is located by comparing the instrumented branch
// traces of the seed run and the generated run (§4.5): both executions are
// recorded with the same relevant-byte restriction and walked in lockstep
// until label or direction differs. (Evaluating the recorded seed
// constraints on the new input would mis-handle fields the input generator
// reconstructs, such as checksums, whose branch conditions mention stale
// stored values; the concrete re-execution sees the repaired file.)
//
// The enforcement loop checks ctx at every iteration boundary, mid-run guest
// executions abort through the interpreter's Cancel hook, and running CDCL
// solves and samples stop through the hunter's solver
// (solver.Solver.StopOn). A cancelled hunt returns promptly with a
// VerdictUnknown result carrying whatever the loop had established so far
// (enforced labels, run counts); callers distinguish cancellation from a
// genuine budget-exhaustion Unknown via ctx.Err().
func (h *Hunter) HuntContext(ctx context.Context, t *Target) *SiteResult {
	defer h.sol.StopOn(ctx)()
	start := time.Now()
	res := &SiteResult{Target: t}
	defer func() { res.Discovery = time.Since(start) }()

	// Static-triage short-circuits (unless the NoTriage ablation is on).
	//
	// A must-overflow site wraps on every execution that reaches it, so the
	// seed run itself is the witness: execute it once and report the exposure
	// without opening a solver session. If the seed unexpectedly fails to
	// trigger (it should not, by soundness of the must verdict), fall through
	// to the full hunt rather than mis-report.
	//
	// A safe *arith* site is skipped outright: safety means no execution on
	// any input wraps at the node, so no hunt can expose it, and the loop
	// reports VerdictUnsat without opening a solver session. The label is a
	// static certificate, not a solver one — the approximated φ∧β can still
	// be satisfiable at a safe site (β omits the runtime sanity checks), so
	// a full hunt may spell the same non-exposable outcome sanity-prevented;
	// the harness marks these results pruned and the prune-parity test pins
	// that no pruned site ever hunts to exposed. Safe *alloc* sites are NOT
	// short-circuited: their curated verdicts distinguish unsatisfiable from
	// sanity-prevented, and the paper tables pin that distinction.
	if !h.opts.NoTriage {
		switch {
		case t.Info.Triage == discover.TriageMustOverflow:
			input := append([]byte(nil), h.app.Format.Seed...)
			res.Runs++
			out := h.execute(ctx, t, input, false)
			if ok, et := triggered(t, out); ok {
				res.Verdict = VerdictExposed
				res.Input = input
				res.ErrorType = et
				return res
			}
		case t.Info.Triage == discover.TriageSafe && t.Info.Kind == discover.KindArith:
			res.Verdict = VerdictUnsat
			return res
		}
	}

	// One incremental solving session serves the whole hunt: the loop below
	// only ever *grows* the conjunction (φ′∧β gains one branch constraint
	// per enforcement iteration), so each Assert lowers just the new
	// conjunct and the CDCL engine keeps everything it learned refuting
	// earlier iterations.
	sess := h.sol.NewSession(t.Beta)

	// Lines 3–6: the target constraint alone. No models means β itself is
	// unsatisfiable — unless sampling ran out of conflicts first, which
	// proves nothing.
	initial, why := sess.SampleModels(initialAttempts)
	if len(initial) == 0 {
		res.Verdict = VerdictUnsat
		if why == solver.Unknown {
			res.Verdict = VerdictUnknown
		}
		return res
	}
	var lastInput []byte
	for _, m := range initial {
		if ctx.Err() != nil {
			res.Verdict = VerdictUnknown
			return res
		}
		input, err := h.gen.Generate(h.app.Format.Seed, m)
		if err != nil {
			h.sol.NoteGenFailure()
			continue
		}
		res.Runs++
		out := h.execute(ctx, t, input, false)
		if ok, et := triggered(t, out); ok {
			res.Verdict = VerdictExposed
			res.Input = input
			res.ErrorType = et
			return res
		}
		lastInput = input
	}
	if lastInput == nil {
		res.Verdict = VerdictUnknown
		return res
	}

	// Lines 9–16: goal-directed branch enforcement.
	enforced := map[string]bool{}
	current := lastInput
	for iter := 0; iter < maxEnforce; iter++ {
		// Iteration boundary: the cancellation point of the enforcement loop.
		if ctx.Err() != nil {
			res.Verdict = VerdictUnknown
			return res
		}
		if h.opts.Progress != nil {
			h.opts.Progress(iter)
		}
		// Instrumented run of the current input for trace comparison. A run
		// aborted by cancellation leaves a truncated branch trace — bail out
		// before the trace comparison acts on it.
		res.Runs++
		curOut := h.execute(ctx, t, current, true)
		if curOut.Kind == interp.OutCancelled {
			res.Verdict = VerdictUnknown
			return res
		}
		label, flipped, followed := h.firstFlipped(t, curOut, enforced)
		// Line 11's break requires the input to have actually executed the
		// target site via the seed path; a run that matched every branch but
		// crashed at an intermediate allocation never evaluated the target
		// expression, so the search must continue with a fresh model.
		followed = followed && reachedSite(t, curOut)
		switch {
		case flipped:
			entry, ok := t.PathEntry(label)
			if !ok {
				// The diverging branch has no enforceable constraint
				// (filtered as irrelevant); nothing more to enforce.
				res.Verdict = VerdictPrevented
				return res
			}
			sess.Assert(entry.Cond)
			enforced[label] = true
			res.Enforced = append(res.Enforced, label)
		case followed:
			// Line 11: the input follows the seed's relevant path yet
			// triggers no overflow.
			res.Verdict = VerdictPrevented
			return res
		default:
			// The input neither flips an enforceable branch nor follows the
			// whole seed path — typically it crashed at an *earlier*
			// allocation site whose size also wrapped, before reaching the
			// branches ahead. No constraint to add; re-solve for a
			// different model below (the session skips its model cache and
			// raises decision-polarity randomness when the conjunction is
			// unchanged, so a repeat solve explores fresh models).
		}

		// Line 13: solve φ′ ∧ β on the session.
		m, verdict := sess.Solve()
		switch verdict {
		case solver.Unsat:
			res.Verdict = VerdictPrevented
			return res
		case solver.Unknown:
			res.Verdict = VerdictUnknown
			return res
		}
		input, err := h.gen.Generate(h.app.Format.Seed, m)
		if err != nil {
			h.sol.NoteGenFailure()
			res.Verdict = VerdictUnknown
			return res
		}
		// Line 14: does the new input trigger the overflow?
		res.Runs++
		out := h.execute(ctx, t, input, false)
		if ok, et := triggered(t, out); ok {
			res.Verdict = VerdictExposed
			res.Input = input
			res.ErrorType = et
			return res
		}
		current = input
	}
	res.Verdict = VerdictUnknown
	return res
}

// dirSet records which directions a run took at one static branch.
type dirSet struct{ t, f bool }

// firstFlipped compares the seed's and the generated run's behaviour per
// static relevant branch, in seed execution order. It returns:
//
//   - label, flipped=true when there is a first branch at which the
//     generated input takes a different path than the seed — a branch both
//     runs execute whose direction *set* differs;
//   - followed=true when the generated run matches the seed's behaviour at
//     every relevant branch (Figure 7 line 11's "satisfies φ");
//   - neither, when the generated run died before reaching part of the seed
//     path without flipping any executed branch (e.g. it crashed at an
//     earlier allocation site) — there is no branch to enforce.
//
// Comparing direction sets rather than the raw occurrence sequences is what
// lets goal-directed enforcement skip blocking checks: at a loop-head branch
// both executions take both directions (the loop runs and then exits), so a
// different iteration count does not register as a flip, whereas a sanity
// check that passed on the seed and failed on the generated input does.
// Enforcing loop-head bands is exactly the mistake that makes the same-path
// constraint unsatisfiable for 12 of the paper's 14 exposed sites (§5.4);
// this is the heart of why DIODE's targeted approach works.
func (h *Hunter) firstFlipped(t *Target, out *interp.Outcome, enforced map[string]bool) (label string, flipped, followed bool) {
	// The seed's per-branch direction sets are a pure function of the
	// Target; newTarget precomputes them so only the generated run's trace
	// is folded here, once per iteration.
	order, seedDirs := t.branchOrder, t.seedDirs
	genDirs := map[string]dirSet{}
	for _, br := range out.Branches {
		d := genDirs[br.Label]
		if br.Taken {
			d.t = true
		} else {
			d.f = true
		}
		genDirs[br.Label] = d
	}
	followed = true
	for _, label := range order {
		gd, executed := genDirs[label]
		if gd != seedDirs[label] {
			followed = false
		}
		if enforced[label] {
			continue
		}
		// Only branches the generated run actually executed can be "taken
		// differently"; unreached branches mean the run ended early.
		if executed && gd != seedDirs[label] {
			return label, true, false
		}
	}
	return "", false, followed
}

// reachedSite reports whether the run executed the target's allocation site.
func reachedSite(t *Target, out *interp.Outcome) bool {
	for _, ev := range out.Allocs {
		if ev.Site == t.Site {
			return true
		}
	}
	return false
}

// SamePathSatisfiable decides the §5.4 experiment for a target: a session
// opened on β with the full seed path asserted at once.
func (h *Hunter) SamePathSatisfiable(t *Target) solver.Verdict {
	sess := h.sol.NewSession(t.Beta)
	sess.Assert(t.SeedPath.Conds())
	_, v := sess.Solve()
	return v
}

// SuccessRateContext generates up to n inputs satisfying the constraint and
// reports how many trigger the overflow at the target site (§5.5/§5.6). The
// experiment is batched: one SampleModels session call enumerates all n
// models up front, then every sampled input is generated and executed on the
// hunter's single reused machine, with no per-sample setup.
//
// It returns the number of triggering inputs and the number of inputs
// actually generated and executed. total can fall short of n two ways, which
// the caller must not conflate: the constraint may have fewer distinct
// solutions than n (the paper's x+2 target expression has two), or Generate
// may fail to reconstruct an input from a model (a broken format fix-up).
// Generation failures are counted in the hunter's solver.Stats.GenFailures —
// SolverStats before/after brackets a run — so a fix-up regression surfaces
// as failures in the stats and report output instead of masquerading as a
// low success rate.
//
// ctx stops the model sampling (solver.Solver.StopOn), is checked between
// sampled executions and aborts mid-run guest executions through the
// interpreter's Cancel hook. On cancellation the partial counts gathered so
// far are returned; callers detect the truncation via ctx.Err().
func (h *Hunter) SuccessRateContext(ctx context.Context, t *Target, constraint *bv.Bool, n int) (hits, total int) {
	defer h.sol.StopOn(ctx)()
	models, _ := h.sol.NewSession(constraint).SampleModels(n)
	for _, m := range models {
		if ctx.Err() != nil {
			return hits, total
		}
		input, err := h.gen.Generate(h.app.Format.Seed, m)
		if err != nil {
			h.sol.NoteGenFailure()
			continue
		}
		total++
		out := h.execute(ctx, t, input, false)
		if out.Kind == interp.OutCancelled {
			total-- // the aborted run observed nothing; do not count it
			return hits, total
		}
		if ok, _ := triggered(t, out); ok {
			hits++
		}
	}
	return hits, total
}

// EnforcedConstraintFor rebuilds φ′∧β from a target and the enforced branch
// labels in enforcement order: for a completed hunt (t = res.Target,
// enforced = res.Enforced) it is the constraint the final input satisfied,
// which the §5.6 experiment samples. The labels are plain strings, so a
// completed hunt's constraint can be reconstructed from a serialized job
// record in a different process (the dispatch layer's success-rate jobs do
// exactly this); labels without a seed-path entry are skipped, matching the
// hunt's own constraint construction.
func EnforcedConstraintFor(t *Target, enforced []string) *bv.Bool {
	out := t.Beta
	for _, label := range enforced {
		if entry, ok := t.PathEntry(label); ok {
			out = bv.AndB(out, entry.Cond)
		}
	}
	return out
}
