// Batchaudit sweeps every registered benchmark application — the paper's
// full Table 1 experiment plus the extended workload suite — and prints the
// measured classification (next to the paper's for the five paper
// applications, measured-only for the extended ones).
//
// The sweep runs on the job-based dispatch layer: the harness plans one job
// per (application, site) and the backend fans them out. The default is the
// in-process LocalBackend shown here with a live progress sink; building
// cmd/diode-worker and setting harness.Config.Backend to a
// dispatch.Exec runs the identical sweep across worker processes with
// byte-identical tables — the seam a networked work-queue backend (the
// paper's §4 deployment) drops into.
//
// Run with: go run ./examples/batchaudit
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync/atomic"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/report"
)

func main() {
	var hunted atomic.Int64
	cfg := harness.Config{
		Seed:        1,
		Parallelism: runtime.GOMAXPROCS(0),
		Sink: func(ev dispatch.Event) {
			if ev.Type == dispatch.EventFinished {
				fmt.Fprintf(os.Stderr, "  [%2d] %-12s %-32s %s\n",
					hunted.Add(1), ev.Job.Kind, ev.Job.Site, ev.Result.Verdict)
			}
		},
	}
	outcomes := harness.EvaluateContext(context.Background(), cfg, apps.All())
	for _, o := range outcomes {
		if o.Err != nil {
			log.Fatal(o.Err)
		}
	}
	recs := harness.Records(outcomes)
	fmt.Print(report.Table1(apps.Paper(), recs))
	fmt.Println()
	fmt.Print(report.TableExtended(apps.Extended(), recs))

	fmt.Println("\nDiscovered overflows:")
	for _, o := range outcomes {
		for _, sr := range o.Result.Sites {
			if sr.Verdict == core.VerdictExposed {
				cve := "(extended suite)"
				if paper, ok := o.App.PaperFor(sr.Target.Site); ok {
					cve = paper.CVE
				}
				fmt.Printf("  %-32s %-22s %s\n", sr.Target.Site, sr.ErrorType, cve)
			}
		}
	}
}
