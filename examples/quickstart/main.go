// Quickstart walks the paper's §2 example end to end: DIODE against Dillo's
// PNG pipeline, targeting the image-buffer allocation png.c@203 whose size
// is rowbytes*height. The hunt itself runs through the job-based dispatch
// API: analysis plans one serializable hunt job per target site, a backend
// executes them (swap LocalBackend for ExecBackend and the same jobs run in
// spawned worker processes), and a progress sink streams the Figure 7
// enforcement iterations live.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"diode"
)

func main() {
	app, err := diode.Application("dillo")
	if err != nil {
		log.Fatal(err)
	}
	opts := diode.Options{Seed: 1}

	// Stages 1–3: taint analysis finds the target sites and relevant input
	// bytes; symbolic re-execution extracts the target expression and the
	// branch conditions of every sanity check on the path. The Analyzer runs
	// once per application; its Targets are immutable.
	targets, err := diode.NewAnalyzer(app, opts).Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d target memory allocation sites\n\n", app.Name, len(targets))

	var png203 *diode.Target
	for _, t := range targets {
		if t.Site == "dillo:png.c@203" {
			png203 = t
		}
	}
	if png203 == nil {
		log.Fatal("png.c@203 not identified as a target site")
	}

	fmt.Println("Target site png.c@203 (the paper's Figure 2 example):")
	fmt.Printf("  relevant input bytes: %v\n", png203.RelevantBytes)
	fmt.Printf("  relevant branches on the seed path: %d static, %d dynamic\n",
		len(png203.SeedPath), png203.DynamicBranches)
	expr := png203.Expr.String()
	if len(expr) > 240 {
		expr = expr[:240] + "..."
	}
	fmt.Printf("  target expression (note the endianness swizzle over\n"+
		"  HachField(32,'/ihdr/width') etc., as in §2):\n    %s\n\n", expr)

	// Goal-directed conditional branch enforcement (Figure 7), dispatched as
	// a job: the record carries everything a worker needs — application,
	// the site's discovered identity, the per-site seed derived from the run
	// seed — so the same job produces the same verdict on any backend (and
	// shares its cache entry with every sweep that hunts this site). The
	// sink narrates the enforcement loop as it runs.
	job := diode.SiteJob(diode.JobHunt, app.Short, png203.Info, opts.Seed, opts.Settings)
	backend := &diode.LocalBackend{Sink: func(ev diode.JobEvent) {
		if ev.Type == diode.JobIteration {
			fmt.Printf("  enforcement iteration %d...\n", ev.Iteration)
		}
	}}
	results, err := diode.RunJobs(context.Background(), backend, []diode.Job{job})
	if err != nil || len(results) != 1 {
		log.Fatalf("dispatch failed: %v", err)
	}
	result := results[0]
	if result.Err != "" {
		log.Fatalf("hunt failed: %s", result.Err)
	}

	fmt.Printf("verdict: %s\n", result.Verdict)
	if result.Verdict != diode.VerdictExposed.String() {
		return
	}
	fmt.Printf("enforced sanity checks, in discovery order:\n")
	for i, label := range result.Enforced {
		fmt.Printf("  %d. %s\n", i+1, label)
	}
	fmt.Printf("error: %s\n", result.ErrorType)
	fmt.Println("\ntriggering input (changed fields):")
	for _, spec := range app.Format.Fields.Specs() {
		if !strings.HasPrefix(spec.Name, "/ihdr/") {
			continue
		}
		fmt.Printf("  %-18s %10d -> %d\n",
			spec.Name, spec.Read(app.Format.Seed), spec.Read(result.Input))
	}
}
