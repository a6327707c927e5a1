// Package diode is a from-scratch Go implementation of DIODE, the targeted
// integer-overflow discovery system of "Targeted Automatic Integer Overflow
// Discovery Using Goal-Directed Conditional Branch Enforcement"
// (Sidiroglou-Douskos et al., ASPLOS 2015).
//
// DIODE starts from a target memory allocation site whose size the input
// influences, extracts a symbolic target expression for the allocated size,
// derives the target constraint (the inputs for which that computation
// overflows), and then runs goal-directed conditional branch enforcement:
// solve, run, find the first sanity check the generated input flips, enforce
// it, and re-solve — until an input triggers the overflow or the constraint
// becomes unsatisfiable.
//
// This root package holds no code, only this overview and the benchmark
// harness that regenerates the paper's evaluation (bench_test.go). The
// system lives in internal packages; its entry points are:
//
//   - harness.EvaluateContext sweeps applications and returns the outcomes
//     the Table 1/2 renderers of internal/report print (cmd/diode-tables).
//   - dispatch.SiteJob plans one serializable job (hunt, same-path or
//     success-rate experiment) for one site, seeded
//     SiteSeed(SiteSeed(seed, app), site); dispatch.HuntJobs plans a hunt
//     per analyzed target (cmd/diode). dispatch.Local runs jobs on an
//     in-process pool and dispatch.Exec shards them across spawned
//     diode-worker processes, with byte-identical results.
//   - core.NewAnalyzer runs stages 1–3 once per application and yields
//     immutable Targets; core.NewHunter runs the Figure 7 enforcement loop
//     for one site with a private solver.
//
// The examples under examples/ show each entry point in use. See DESIGN.md
// for the package inventory and the layer diagram.
package diode
