package report

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"diode/internal/apps"
	"diode/internal/lang"
)

func sampleRecords() []*AppRecord {
	var recs []*AppRecord
	for _, app := range apps.Paper() {
		rec := &AppRecord{App: app.Short, AnalysisMS: 10}
		for _, ps := range app.Paper {
			rec.Sites = append(rec.Sites, SiteRecord{
				App:       app.Short,
				Site:      ps.Site,
				Class:     ps.Class.String(),
				Verdict:   ps.Class.String(),
				ErrorType: ps.ErrorType,
				Enforced:  ps.EnforcedX,
			})
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestTable1RendersTotals(t *testing.T) {
	out := Table1(apps.Paper(), sampleRecords())
	for _, want := range []string{
		"Dillo 2.1", "VLC 0.8.6h", "ImageMagick 6.5.2",
		"Total", "40 | 40", "14 | 14", "17 | 17", "9 | 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2RendersExposedRows(t *testing.T) {
	out := Table2(apps.Paper(), sampleRecords())
	for _, want := range []string{
		"dillo:png.c@203", "CVE-2009-2294", "CVE-2008-2430", "vlc:block.c@54",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	if strings.Contains(out, "dillo:png.c@118") {
		t.Error("Table 2 must only list exposed sites")
	}
}

// extendedRecords builds synthetic measured-only records for the extended
// suite (extended apps carry no paper expectations to derive from).
func extendedRecords() []*AppRecord {
	var recs []*AppRecord
	for _, app := range apps.Extended() {
		rec := &AppRecord{App: app.Short, AnalysisMS: 4}
		var sites []string
		app.Program.WalkStmts(func(_ *lang.Func, _ string, s lang.Stmt) {
			if al, ok := s.(lang.Alloc); ok {
				sites = append(sites, al.Site)
			}
		})
		slices.Sort(sites)
		for i, site := range sites {
			class := apps.ClassExposed
			sr := SiteRecord{App: app.Short, Site: site, Enforced: 2 + i, RelevantDynamic: 11}
			if i%2 == 1 {
				class = apps.ClassUnsat
			} else {
				sr.ErrorType = "SIGSEGV/InvalidWrite"
				sr.TargetOnly = Rate{Hits: 5, Total: 20}
			}
			sr.Class = class.String()
			sr.Verdict = class.String()
			rec.Sites = append(rec.Sites, sr)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestTableExtendedRendersMeasuredOnly: the extended table must carry rows
// for every extended app and site, with no paper-value "|" separators.
func TestTableExtendedRendersMeasuredOnly(t *testing.T) {
	out := TableExtended(apps.Extended(), extendedRecords())
	for _, want := range []string{
		"GIFView 0.4", "TIFThumb 0.2",
		"gifview:gif.c@155", "tifthumb:tif.c@231",
		"SIGSEGV/InvalidWrite", "5/20", "Total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("extended table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "|") {
		t.Errorf("extended table renders paper-comparison separators:\n%s", out)
	}
	// Apps without records are skipped, not rendered empty.
	if got := TableExtended(apps.Extended(), nil); strings.Contains(got, "GIFView") {
		t.Error("extended table rendered rows with no records")
	}
}

func TestRateString(t *testing.T) {
	if (Rate{}).String() != "N/A" {
		t.Error("zero rate should render N/A")
	}
	if (Rate{Hits: 3, Total: 7}).String() != "3/7" {
		t.Error("rate render")
	}
}

// TestTableDiscovered checks the static-discovery summary: one row per
// application with kind counts that add up, a curated column matching the
// paper tables, and a totals row.
func TestTableDiscovered(t *testing.T) {
	appList := apps.All()
	out, err := TableDiscovered(appList)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Discovered Overflow Sites") || !strings.Contains(out, "Alloc") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, app := range appList {
		if !strings.Contains(out, app.Name) {
			t.Errorf("missing row for %s:\n%s", app.Name, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "Total") {
		t.Fatalf("last line is not the totals row: %q", last)
	}
	var total, alloc, arith, curated int
	if _, err := fmt.Sscanf(strings.Join(strings.Fields(last), " "),
		"Total %d %d %d %d", &total, &alloc, &arith, &curated); err != nil {
		t.Fatalf("unparseable totals row %q: %v", last, err)
	}
	if total != alloc+arith || total == 0 {
		t.Errorf("totals row inconsistent: %d sites != %d alloc + %d arith", total, alloc, arith)
	}
	var wantCurated int
	for _, app := range appList {
		wantCurated += len(app.Paper)
	}
	if curated != wantCurated {
		t.Errorf("curated total = %d, want %d", curated, wantCurated)
	}
}
