// Wavhunt runs DIODE against all four VLC 0.8.6h WAV-path target sites,
// including CVE-2008-2430 (wav.c@147), whose target expression fmt_size+2
// has exactly two overflowing solutions — the §5.5 "2/2" row.
//
// Run with: go run ./examples/wavhunt
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
)

func main() {
	app, err := apps.ByName("vlc")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	const seed = 7
	jc := dispatch.NewJobCache(dispatch.CacheConfig{})
	targets, err := jc.Targets(ctx, app, dispatch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	backend := &dispatch.Local{Workers: runtime.GOMAXPROCS(0), Cache: jc}
	results, err := dispatch.Collect(ctx, backend, dispatch.HuntJobs(app.Short, targets, seed, dispatch.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].JobID < results[j].JobID })

	fmt.Printf("%s: hunting %d WAV-path allocation sites\n\n", app.Name, len(results))
	for _, r := range results {
		if r.Err != "" {
			log.Fatalf("%s: %s", r.Site, r.Err)
		}
		paper, _ := app.PaperFor(r.Site)
		fmt.Printf("%-24s %-12s (paper: %s)\n", r.Site, r.Verdict, paper.CVE)
		if r.Verdict != core.VerdictExposed.String() {
			continue
		}
		fmt.Printf("  error: %s, enforced %d branch(es)\n", r.ErrorType, len(r.Enforced))
		for _, spec := range app.Format.Fields.Specs() {
			oldV, newV := spec.Read(app.Format.Seed), spec.Read(r.Input)
			if oldV != newV {
				fmt.Printf("  %-16s %d -> %d\n", spec.Name, oldV, newV)
			}
		}
	}

	// The CVE-2008-2430 story: count the distinct solutions of the target
	// constraint with a §5.5 success-rate job, seeded like every other job
	// for the site. x+2 over a 32-bit field overflows for exactly two values.
	var wav *core.Target
	for _, t := range targets {
		if t.Site == "vlc:wav.c@147" {
			wav = t
		}
	}
	if wav == nil {
		log.Fatal("vlc:wav.c@147 not identified as a target site")
	}
	job := dispatch.SiteJob(dispatch.KindSuccessRate, app.Short, wav.Info, seed, dispatch.Options{})
	job.SampleN = 200
	rate, err := dispatch.Collect(ctx, backend, []dispatch.Job{job})
	if err != nil || len(rate) != 1 || rate[0].Err != "" {
		log.Fatalf("success-rate job failed: %v %+v", err, rate)
	}
	fmt.Printf("\nwav.c@147 target-constraint sampling: %d/%d inputs trigger "+
		"(the constraint has only two solutions; paper reports 2/2)\n", rate[0].Hits, rate[0].Total)
}
