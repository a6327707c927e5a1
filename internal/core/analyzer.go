package core

import (
	"context"
	"fmt"

	"diode/internal/apps"
	"diode/internal/bv"
	"diode/internal/discover"
	"diode/internal/interp"
	"diode/internal/taint"
	"diode/internal/trace"
)

// Analyzer performs stages 1–3 of the pipeline for one application: the
// taint run that identifies target sites and relevant bytes, then one
// symbolic run per site (restricted to that site's relevant bytes, §4.2) to
// extract the target expression and the branch condition sequence.
//
// Analysis runs once per application; the Targets it produces are immutable
// and safe to share across concurrent Hunters. The Analyzer triggers the
// application's one-time program compilation (apps.App.Compiled) and runs
// all its stage 1–3 executions on one private reused interp.Machine; the
// shared Compiled is what every site's Hunter then executes.
type Analyzer struct {
	app  *apps.App
	opts Options
	mach *interp.Machine
}

// NewAnalyzer returns an analyzer for the application.
func NewAnalyzer(app *apps.App, opts Options) *Analyzer {
	return &Analyzer{app: app, opts: opts.withDefaults(), mach: interp.NewMachine(app.Compiled())}
}

// Discovered returns the application's statically discovered sites in
// deterministic traversal order — the full site surface, of which the
// dynamically analyzed Targets cover the alloc-kind sites the seed input
// reaches with tainted sizes.
func (a *Analyzer) Discovered() ([]discover.Site, error) {
	return a.app.Discovered()
}

// siteInfo resolves the discovery record for an alloc site name from the
// application's site list (apps.App.Sites), so Targets carry the static
// verdict and bounds for the Hunter's short-circuits. Static discovery
// over-approximates the dynamic taint run, so every analyzed site should be
// found; a site it misses gets a minimal record.
func (a *Analyzer) siteInfo(site string) (discover.Site, error) {
	sites, err := a.app.Sites(a.opts.NoTriage)
	if err != nil {
		return discover.Site{}, err
	}
	for _, s := range sites {
		if s.Kind == discover.KindAlloc && s.Name == site {
			return s, nil
		}
	}
	return discover.Site{Name: site, Kind: discover.KindAlloc}, nil
}

// run executes the guest on the analyzer's reused machine. The outcome
// aliases machine storage: anything retained past the next run must be
// copied.
func (a *Analyzer) run(input []byte, opts interp.Options) *interp.Outcome {
	a.mach.Reset(input, opts)
	return a.mach.Run()
}

// Analyze identifies every tainted allocation site and extracts a Target per
// site, in seed execution order.
func (a *Analyzer) Analyze() ([]*Target, error) {
	return a.AnalyzeContext(context.Background())
}

// AnalyzeContext is Analyze with cancellation: ctx is checked between per-site
// symbolic runs and aborts mid-run guest executions through the interpreter's
// Cancel hook. A cancelled analysis returns (nil, ctx.Err()).
func (a *Analyzer) AnalyzeContext(ctx context.Context) ([]*Target, error) {
	seed := a.app.Format.Seed
	taintRun := a.run(seed, interp.Options{
		TrackTaint: true,
		Fuel:       a.opts.Fuel,
		Cancel:     ctx.Done(),
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if taintRun.Kind != interp.OutOK {
		return nil, fmt.Errorf("core: seed taint run ended %v (%s)", taintRun.Kind, taintRun.AbortMsg)
	}
	// First tainted occurrence per site, in execution order.
	var order []string
	firstTaint := map[string]*taint.Set{}
	for _, ev := range taintRun.Allocs {
		if ev.Taint.Empty() {
			continue
		}
		if _, ok := firstTaint[ev.Site]; !ok {
			firstTaint[ev.Site] = ev.Taint
			order = append(order, ev.Site)
		}
	}

	var targets []*Target
	for _, site := range order {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t, err := a.analyzeSite(ctx, site, firstTaint[site])
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	return targets, nil
}

func (a *Analyzer) analyzeSite(ctx context.Context, site string, labels *taint.Set) (*Target, error) {
	seed := a.app.Format.Seed
	relevant := labels.Elems()
	symRun := a.run(seed, interp.Options{
		TrackSymbolic: true,
		Fuel:          a.opts.Fuel,
		Cancel:        ctx.Done(),
		SymbolicBytes: func(i int) bool { return labels.Has(i) },
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if symRun.Kind != interp.OutOK {
		return nil, fmt.Errorf("core: symbolic run for %s ended %v", site, symRun.Kind)
	}
	var ev *interp.AllocEvent
	for i := range symRun.Allocs {
		if symRun.Allocs[i].Site == site && symRun.Allocs[i].Sym != nil {
			ev = &symRun.Allocs[i]
			break
		}
	}
	if ev == nil {
		return nil, fmt.Errorf("core: site %s lost its symbolic size in stage 2", site)
	}

	fields := a.app.Format.Fields
	expr := fields.LiftTerm(ev.Sym)
	beta := bv.OverflowCond(expr)

	// The Target retains the raw branch records past this site's run, but the
	// outcome's slices are reused machine storage — copy before the next
	// site's symbolic run overwrites them. (The records' Cond terms are
	// interned and immutable; only the slice needs detaching.)
	raw := append([]interp.BranchRecord(nil), symRun.Branches[:ev.BranchMark]...)
	path := trace.FromBranches(raw)
	lifted := make(trace.Path, len(path))
	for i, entry := range path {
		lifted[i] = trace.Entry{
			Label: entry.Label,
			Cond:  fields.LiftBool(entry.Cond),
			Count: entry.Count,
		}
	}
	lifted = trace.Relevant(trace.Compress(lifted), beta)
	info, err := a.siteInfo(site)
	if err != nil {
		return nil, err
	}
	t := &Target{
		Site:            site,
		Info:            info,
		RelevantBytes:   relevant,
		Expr:            expr,
		Beta:            beta,
		SeedPath:        lifted,
		RawSeedBranches: raw,
		DynamicBranches: len(raw),
	}
	t.finalize()
	return t, nil
}
