package main

import (
	"fmt"
	"sort"
	"strings"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/interp"
	"diode/internal/report"
)

// Expected paper-sweep outputs, independent of the workload seed.
const (
	wantTable1Total   = "Total 40 | 40 14 | 14 17 | 17 9 | 9"
	wantExtendedTotal = "Total 10 sites 4 exposed, 3 unsat, 3 prevented"
	// arith-surface plans this many probe hunts and prunes this many
	// triage-safe arith sites over vlc, imagemagick, gifview and tifthumb.
	wantArithHunts  = 87
	wantArithPruned = 40
	// replayFuel is the core's default guest fuel, so a replay runs exactly
	// as far as the hunt's own runs could.
	replayFuel = 50_000_000
)

var wantSamePathSat = []string{"cwebp:jpegdec.c@248", "swfplay:jpeg.c@192"}

// appErrors fails on any application-level sweep error.
func appErrors(p *pass) error {
	for _, o := range p.outcomes {
		if o.Err != nil {
			return fmt.Errorf("%s: %v", o.App.Short, o.Err)
		}
	}
	return nil
}

// splitSuites splits applications into the paper and extended suites.
func splitSuites(list []*apps.App) (paper, extended []*apps.App) {
	for _, a := range list {
		if a.Paper != nil {
			paper = append(paper, a)
		} else {
			extended = append(extended, a)
		}
	}
	return paper, extended
}

// paperOutcomes keeps the outcomes of the paper suite.
func paperOutcomes(p *pass) []harness.AppOutcome {
	var out []harness.AppOutcome
	for _, o := range p.outcomes {
		if o.App.Paper != nil {
			out = append(out, o)
		}
	}
	return out
}

// totalLine returns the whitespace-collapsed "Total" row of a table.
func totalLine(table string) string {
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "Total" {
			return strings.Join(f, " ")
		}
	}
	return ""
}

// paperOracle checks a paper-sweep pass: Table 1 classification, the §5.4
// same-path verdicts of the paper suite, the extended-suite classification,
// every curated site's paper class, and that no triage-safe site is exposed.
func paperOracle(e *env, p *pass) error {
	if err := appErrors(p); err != nil {
		return err
	}
	recs := harness.Records(p.outcomes)
	paper, extended := splitSuites(e.list)
	if got := totalLine(report.Table1(paper, recs)); got != wantTable1Total {
		return fmt.Errorf("table 1 reads %q, want %q", got, wantTable1Total)
	}
	if got := totalLine(report.TableExtended(extended, recs)); got != wantExtendedTotal {
		return fmt.Errorf("extended table reads %q, want %q", got, wantExtendedTotal)
	}
	var sat []string
	for _, rec := range harness.Records(paperOutcomes(p)) {
		for _, s := range rec.Sites {
			if s.SamePathSat == "sat" {
				sat = append(sat, s.Site)
			}
		}
	}
	sort.Strings(sat)
	if strings.Join(sat, ",") != strings.Join(wantSamePathSat, ",") {
		return fmt.Errorf("same-path sat for %v, want exactly %v", sat, wantSamePathSat)
	}
	return commonOracle(p)
}

// arithOracle checks an arith-surface pass: the planned and pruned arith
// surface, curated classes of the alloc sites, and triage soundness.
func arithOracle(e *env, p *pass) error {
	if err := appErrors(p); err != nil {
		return err
	}
	var hunts, pruned int
	for _, o := range p.outcomes {
		for _, as := range o.Arith {
			if as.Pruned {
				pruned++
			} else {
				hunts++
			}
		}
	}
	if hunts != wantArithHunts || pruned != wantArithPruned {
		return fmt.Errorf("arith surface has %d hunts and %d pruned sites, want %d and %d",
			hunts, pruned, wantArithHunts, wantArithPruned)
	}
	return commonOracle(p)
}

// warmOracle checks a warm-resweep pass: everything paperOracle checks,
// every job served from the store, and tables byte-identical to the cold
// pass that filled it.
func warmOracle(e *env, p *pass) error {
	if err := paperOracle(e, p); err != nil {
		return err
	}
	if p.cache.Misses != 0 || p.cache.Hits != e.fill.cache.Misses || p.cache.CorruptEntries != 0 {
		return fmt.Errorf("warm pass cache: hits=%d misses=%d corrupt=%d, want hits=%d misses=0",
			p.cache.Hits, p.cache.Misses, p.cache.CorruptEntries, e.fill.cache.Misses)
	}
	if got := normalizedTables(e, p); got != e.cold {
		return fmt.Errorf("warm tables differ from the cold pass:\n%s\nwant:\n%s", got, e.cold)
	}
	return nil
}

// commonOracle checks what holds on every workload: each curated site ends
// in its paper class, and no site the static triage proves safe is exposed.
func commonOracle(p *pass) error {
	for _, o := range p.outcomes {
		for _, sr := range o.Result.Sites {
			if ps, ok := o.App.PaperFor(sr.Target.Site); ok && sr.Verdict.Class() != ps.Class {
				return fmt.Errorf("%s ends %s, paper class %s", sr.Target.Site, sr.Verdict, ps.Class)
			}
			if sr.Verdict == core.VerdictExposed && sr.Target.Info.Triage == discover.TriageSafe {
				return fmt.Errorf("triage-safe alloc site %s is exposed", sr.Target.Site)
			}
		}
		for _, as := range o.Arith {
			if as.Verdict == core.VerdictExposed && as.Site.Triage == discover.TriageSafe {
				return fmt.Errorf("triage-safe arith site %s is exposed", as.Site.Name)
			}
		}
	}
	return nil
}

// replayExposures re-runs every exposed input, alloc and arith, on the
// tree-walking interpreter (never the threaded Machine the Hunter ran on)
// and checks that it wraps at its site. Arith inputs replay on the probe
// program. It returns the number of inputs replayed.
func replayExposures(p *pass) (int, error) {
	n := 0
	replay := func(a *apps.App, site string, input []byte) error {
		if input == nil {
			return fmt.Errorf("exposed site %s has no input", site)
		}
		out := interp.RunTree(a.Program, input, interp.Options{Fuel: replayFuel})
		for _, ev := range out.Allocs {
			if ev.Site == site && ev.Wrapped {
				n++
				return nil
			}
		}
		return fmt.Errorf("exposing input of %s does not wrap there on the tree-walking interpreter (outcome %v)", site, out.Kind)
	}
	for _, o := range p.outcomes {
		for _, sr := range o.Result.Sites {
			if sr.Verdict == core.VerdictExposed {
				if err := replay(o.App, sr.Target.Site, sr.Input); err != nil {
					return n, err
				}
			}
		}
		for _, as := range o.Arith {
			if as.Verdict != core.VerdictExposed {
				continue
			}
			probe, err := o.App.Probe(as.Site.Name)
			if err != nil {
				return n, err
			}
			in := p.col.inputs[jobRef{kind: dispatch.KindHunt, app: o.App.Short, site: as.Site.Name}]
			if err := replay(probe, as.Site.Name, in); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// normalizedTables renders the paper tables with every clock-derived field
// zeroed, for byte comparison across passes.
func normalizedTables(e *env, p *pass) string {
	recs := harness.Records(p.outcomes)
	norm := make([]*report.AppRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.AnalysisMS = 0
		c.Sites = append([]report.SiteRecord(nil), r.Sites...)
		for j := range c.Sites {
			c.Sites[j].DiscoveryMS = 0
		}
		norm[i] = &c
	}
	paper, extended := splitSuites(e.list)
	return report.Table1(paper, norm) + report.Table2(paper, norm) + report.TableExtended(extended, norm)
}
