package core

import (
	"context"

	"diode/internal/apps"
	"diode/internal/inputgen"
	"diode/internal/interp"
	"diode/internal/solver"
)

// Hunter runs the goal-directed conditional branch enforcement loop of
// Figure 7 against the target sites of one application. Each Hunter owns a
// private solver, input generator and interp.Machine, so hunts are fully
// isolated from one another: every per-site hunt gets a fresh Hunter seeded
// from the run seed, the application and the site name (the
// SiteSeed(SiteSeed(seed, app), site) derivation of dispatch.SiteJob),
// which is what makes parallel and sequential sweeps produce identical
// verdicts. The guest program itself is executed in the application's shared immutable compiled
// form (apps.App.Compiled) — compilation is paid once per application, while
// all mutable execution state stays hunter-private.
type Hunter struct {
	app  *apps.App
	opts Options
	sol  *solver.Solver
	gen  *inputgen.Generator
	mach *interp.Machine
}

// NewHunter returns a hunter for the application. opts.Seed seeds the
// hunter's private solver directly; every sweep passes the per-site seed of
// its dispatch.SiteJob.
func NewHunter(app *apps.App, opts Options) *Hunter {
	return &Hunter{
		app:  app,
		opts: opts,
		sol:  solver.New(solver.Options{Seed: opts.Seed}),
		gen:  app.Format.Generator(),
		mach: interp.NewMachine(app.Compiled()),
	}
}

// SolverStats snapshots the hunter-local solver's work counters; a dispatch
// job reports them on its Result.
func (h *Hunter) SolverStats() solver.Stats { return h.sol.Snapshot() }

// execute runs the guest on an input and returns the outcome. When
// withBranches is set, the run records the branch trace restricted to the
// target's relevant bytes (for first-flipped-branch comparison). The run
// reuses the hunter's private machine, so the returned outcome is valid only
// until the hunter's next execute call. A cancelled ctx aborts the
// run mid-execution through the interpreter's Cancel hook (the outcome then
// reads OutCancelled).
func (h *Hunter) execute(ctx context.Context, t *Target, input []byte, withBranches bool) *interp.Outcome {
	opts := interp.Options{Cancel: ctx.Done()}
	if withBranches {
		opts.Symbolic = t.symbolic
	}
	h.mach.Reset(input, opts)
	return h.mach.Run()
}

// triggered reports whether the outcome contains an overflowing allocation
// at the target site, and derives the observable error type.
func triggered(t *Target, out *interp.Outcome) (bool, string) {
	hit := false
	for _, ev := range out.Allocs {
		if ev.Site == t.Site && ev.Wrapped {
			hit = true
			break
		}
	}
	if !hit {
		return false, ""
	}
	return true, errorType(t.Site, out)
}

// errorType renders the paper's Table 2 "Error Type" column from the run's
// signal and the memcheck findings attributed to the site's block.
func errorType(site string, out *interp.Outcome) string {
	var read, write bool
	for _, me := range out.MemErrs {
		if me.Site != site {
			continue
		}
		if me.Kind == interp.InvalidRead {
			read = true
		} else {
			write = true
		}
	}
	var access string
	switch {
	case read && write:
		access = "InvalidRead/Write"
	case read:
		access = "InvalidRead"
	case write:
		access = "InvalidWrite"
	default:
		access = "SilentOverflow"
	}
	switch out.Kind {
	case interp.OutSegv:
		return "SIGSEGV/" + access
	case interp.OutAbrt:
		return "SIGABRT/" + access
	default:
		return access
	}
}
