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

	"diode"
)

func main() {
	app, err := diode.Application("vlc")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	opts := diode.Options{Seed: 7}
	jc := diode.NewJobCache(diode.JobCacheConfig{})
	targets, err := jc.Targets(ctx, app, opts.Settings)
	if err != nil {
		log.Fatal(err)
	}
	backend := &diode.LocalBackend{Workers: runtime.GOMAXPROCS(0), Cache: jc}
	results, err := diode.RunJobs(ctx, backend, diode.HuntJobsFor(app, opts, targets))
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
		if r.Verdict != diode.VerdictExposed.String() {
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
	// constraint. x+2 over a 32-bit field overflows for exactly two values.
	var wav *diode.Target
	for _, t := range targets {
		if t.Site == "vlc:wav.c@147" {
			wav = t
		}
	}
	if wav == nil {
		log.Fatal("vlc:wav.c@147 not identified as a target site")
	}
	hits, total := diode.NewHunter(app, opts.ForSite(wav.Site)).SuccessRateContext(ctx, wav, wav.Beta, 200)
	fmt.Printf("\nwav.c@147 target-constraint sampling: %d/%d inputs trigger "+
		"(the constraint has only two solutions; paper reports 2/2)\n", hits, total)
}
