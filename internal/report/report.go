// Package report renders the evaluation tables — the paper's Table 1
// (target site classification) and Table 2 (per-overflow summary plus the
// §5.5/§5.6 success-rate columns) — with the paper's numbers printed next to
// the measured ones, and keeps a JSON results database (the paper's §4
// "database of relevant experimental results").
package report

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"diode/internal/absint"
	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
)

// Rate is one success-rate measurement: Hits triggering inputs out of Total
// generated. Failures counts sampled models the input-reconstruction layer
// could not turn into files (solver.Stats.GenFailures for the experiment);
// it is rendered alongside the rate so a broken format fix-up reads as
// generation failures in the tables rather than as a low success rate.
type Rate struct {
	Hits     int
	Total    int
	Failures int `json:",omitempty"`
}

func (r Rate) String() string {
	if r.Total == 0 && r.Failures == 0 {
		return "N/A"
	}
	s := fmt.Sprintf("%d/%d", r.Hits, r.Total)
	if r.Failures > 0 {
		s += fmt.Sprintf(" (%d gen-fail)", r.Failures)
	}
	return s
}

// SiteRecord is the persisted, render-ready result for one target site.
type SiteRecord struct {
	App       string
	Site      string
	Verdict   string
	Class     string
	ErrorType string
	Enforced  int
	// RelevantDynamic is the measured Y value (dynamic relevant branches on
	// the seed path to the site).
	RelevantDynamic int
	DiscoveryMS     int64
	// TargetOnly and TargetEnforced are the measured §5.5/§5.6 rates
	// (Total == 0 when the experiment was not run).
	TargetOnly     Rate
	TargetEnforced Rate
	// SamePathSat records the §5.4 verdict ("sat", "unsat" or "" if not run).
	SamePathSat string
}

// AppRecord is the persisted result for one application.
type AppRecord struct {
	App        string
	AnalysisMS int64
	Sites      []SiteRecord
}

// FromResult converts an engine result into a persistable record.
// Experiment fields (success rates, same-path) start empty and are filled by
// the harness when those experiments run.
func FromResult(res *core.AppResult) *AppRecord {
	rec := &AppRecord{
		App:        res.App.Short,
		AnalysisMS: res.Analysis.Milliseconds(),
	}
	for _, sr := range res.Sites {
		rec.Sites = append(rec.Sites, SiteRecord{
			App:             res.App.Short,
			Site:            sr.Target.Site,
			Verdict:         sr.Verdict.String(),
			Class:           sr.Verdict.Class().String(),
			ErrorType:       sr.ErrorType,
			Enforced:        sr.EnforcedCount(),
			RelevantDynamic: sr.Target.DynamicBranches,
			DiscoveryMS:     sr.Discovery.Milliseconds(),
		})
	}
	return rec
}

// SiteFor returns a pointer to the record for the named site.
func (r *AppRecord) SiteFor(site string) *SiteRecord {
	for i := range r.Sites {
		if r.Sites[i].Site == site {
			return &r.Sites[i]
		}
	}
	return nil
}

// Save renders the records as the indented-JSON results database; records
// are plain data, so the standard encoder round-trips them.
func Save(recs []*AppRecord) ([]byte, error) {
	return json.MarshalIndent(recs, "", "  ")
}

// classCounts tallies a record's sites per classification.
func classCounts(rec *AppRecord) (exposed, unsat, prevented int) {
	for _, s := range rec.Sites {
		switch s.Class {
		case apps.ClassExposed.String():
			exposed++
		case apps.ClassUnsat.String():
			unsat++
		default:
			prevented++
		}
	}
	return
}

// Table1 renders the target-site classification table with measured and
// paper values side by side.
func Table1(appList []*apps.App, recs []*AppRecord) string {
	var b strings.Builder
	b.WriteString("Table 1: Target Site Classification (measured | paper)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tTotal Sites\tExposes Overflow\tConstraint Unsat\tChecks Prevent")
	totals := [8]int{}
	for _, app := range appList {
		rec := findRecord(recs, app.Short)
		if rec == nil {
			continue
		}
		e, u, p := classCounts(rec)
		var pe, pu, pp int
		for _, ps := range app.Paper {
			switch ps.Class {
			case apps.ClassExposed:
				pe++
			case apps.ClassUnsat:
				pu++
			default:
				pp++
			}
		}
		fmt.Fprintf(w, "%s\t%d | %d\t%d | %d\t%d | %d\t%d | %d\n",
			app.Name, len(rec.Sites), len(app.Paper), e, pe, u, pu, p, pp)
		for i, v := range []int{len(rec.Sites), len(app.Paper), e, pe, u, pu, p, pp} {
			totals[i] += v
		}
	}
	fmt.Fprintf(w, "Total\t%d | %d\t%d | %d\t%d | %d\t%d | %d\n",
		totals[0], totals[1], totals[2], totals[3], totals[4], totals[5], totals[6], totals[7])
	w.Flush()
	return b.String()
}

// Table2 renders the per-overflow summary (exposed sites only) with paper
// values alongside.
func Table2(appList []*apps.App, recs []*AppRecord) string {
	var b strings.Builder
	b.WriteString("Table 2: Evaluation Summary (measured | paper)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tTarget\tCVE\tError Type (measured)\tTime (A) D\tEnforced X/Y\tTarget Rate\t+Enforced Rate")
	for _, app := range appList {
		rec := findRecord(recs, app.Short)
		if rec == nil {
			continue
		}
		for _, ps := range app.Paper {
			if ps.Class != apps.ClassExposed {
				continue
			}
			sr := rec.SiteFor(ps.Site)
			if sr == nil || sr.Class != apps.ClassExposed.String() {
				fmt.Fprintf(w, "%s\t%s\t%s\tNOT EXPOSED\t\t\t\t\n", app.Name, ps.Site, ps.CVE)
				continue
			}
			paperEnf := fmt.Sprintf("%d/%d", ps.EnforcedX, ps.EnforcedY)
			measEnf := fmt.Sprintf("%d/%d", sr.Enforced, sr.RelevantDynamic)
			paperTR := fmt.Sprintf("%d/%d", ps.TargetRate, ps.TargetRateOf)
			paperER := "N/A"
			if ps.EnforcedRate >= 0 {
				paperER = fmt.Sprintf("%d/200", ps.EnforcedRate)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t(%s) %s\t%s | %s\t%s | %s\t%s | %s\n",
				app.Name, ps.Site, ps.CVE, sr.ErrorType,
				durMS(rec.AnalysisMS), durMS(sr.DiscoveryMS),
				measEnf, paperEnf,
				sr.TargetOnly, paperTR,
				sr.TargetEnforced, paperER)
		}
	}
	w.Flush()
	return b.String()
}

// TableExtended renders the extended-suite evaluation table. Extended
// applications have no paper expectations, so every column is measured-only
// and every site appears (not just the exposed ones): classification,
// observed error type, analysis/discovery times, enforced X/Y and the §5.5
// success rate when the experiment ran.
func TableExtended(appList []*apps.App, recs []*AppRecord) string {
	var b strings.Builder
	b.WriteString("Extended Suite: Site Classification and Discovery (measured only)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tSite\tClass\tError Type\tTime (A) D\tEnforced X/Y\tTarget Rate")
	var exposed, unsat, prevented int
	for _, app := range appList {
		rec := findRecord(recs, app.Short)
		if rec == nil {
			continue
		}
		e, u, p := classCounts(rec)
		exposed, unsat, prevented = exposed+e, unsat+u, prevented+p
		for _, sr := range rec.Sites {
			errType, times, enf, rate := "", "", "", ""
			if sr.Class == apps.ClassExposed.String() {
				errType = sr.ErrorType
				times = fmt.Sprintf("(%s) %s", durMS(rec.AnalysisMS), durMS(sr.DiscoveryMS))
				enf = fmt.Sprintf("%d/%d", sr.Enforced, sr.RelevantDynamic)
				rate = sr.TargetOnly.String()
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				app.Name, sr.Site, sr.Class, errType, times, enf, rate)
		}
	}
	fmt.Fprintf(w, "Total\t%d sites\t%d exposed, %d unsat, %d prevented\t\t\t\t\n",
		exposed+unsat+prevented, exposed, unsat, prevented)
	w.Flush()
	return b.String()
}

// TableDiscovered renders the static site-discovery summary: per
// application, the discovered sites by kind, next to the size of the
// curated paper table those discoveries supersede. Discovery is static —
// the counts come from the apps' discovery pass, not from sweep records.
func TableDiscovered(appList []*apps.App) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Discovered Overflow Sites (static pass, discovery v%s)\n\n", discover.Version)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tSites\tAlloc\tArith\tCurated")
	var totals [4]int
	for _, app := range appList {
		sites, err := app.Discovered()
		if err != nil {
			return "", fmt.Errorf("report: %s: %w", app.Short, err)
		}
		var alloc, arith int
		for _, s := range sites {
			switch s.Kind {
			case discover.KindAlloc:
				alloc++
			case discover.KindArith:
				arith++
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", app.Name, len(sites), alloc, arith, len(app.Paper))
		for i, v := range []int{len(sites), alloc, arith, len(app.Paper)} {
			totals[i] += v
		}
	}
	fmt.Fprintf(w, "Total\t%d\t%d\t%d\t%d\n", totals[0], totals[1], totals[2], totals[3])
	w.Flush()
	return b.String(), nil
}

// TableTriage renders the static value-range triage summary: per
// application, the discovered sites by triage verdict and what the triage
// prunes from the extended arith hunt — statically safe arith sites are
// skipped outright (the Hunter folds them as unsatisfiable without opening
// a solver session), so they are hunts an arith sweep never pays for.
// Triage is static — the counts come from the apps' triage pass, not from
// sweep records. Safe counts include the sites whose safety holds even with
// guards ignored (the "unconditionally safe" subset, shown in parentheses).
func TableTriage(appList []*apps.App) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Static Value-Range Triage (abstract interpretation v%s)\n\n", absint.Version)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tSites\tSafe\tMust-overflow\tUnknown\tPruned arith hunts")
	var totals [6]int
	for _, app := range appList {
		sites, err := app.Triaged()
		if err != nil {
			return "", fmt.Errorf("report: %s: %w", app.Short, err)
		}
		var safe, uncond, must, unknown, pruned int
		for _, s := range sites {
			switch s.Triage {
			case discover.TriageSafe:
				safe++
				if s.SafeNoGuards {
					uncond++
				}
				if s.Kind == discover.KindArith {
					pruned++
				}
			case discover.TriageMustOverflow:
				must++
			default:
				unknown++
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%d (%d)\t%d\t%d\t%d\n",
			app.Name, len(sites), safe, uncond, must, unknown, pruned)
		for i, v := range []int{len(sites), safe, uncond, must, unknown, pruned} {
			totals[i] += v
		}
	}
	fmt.Fprintf(w, "Total\t%d\t%d (%d)\t%d\t%d\t%d\n",
		totals[0], totals[1], totals[2], totals[3], totals[4], totals[5])
	w.Flush()
	return b.String(), nil
}

func durMS(ms int64) string {
	return time.Duration(ms * int64(time.Millisecond)).String()
}

func findRecord(recs []*AppRecord, short string) *AppRecord {
	for _, r := range recs {
		if r.App == short {
			return r
		}
	}
	return nil
}
