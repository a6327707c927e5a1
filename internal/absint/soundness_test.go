package absint_test

import (
	"sync"
	"testing"

	"diode/internal/absint"
	"diode/internal/apps"
	"diode/internal/discover"
	"diode/internal/interp"
	"diode/internal/lang"
)

// appStatic is the per-application static side of the differential oracle:
// the abstract interpretation plus the triaged site table, computed once and
// reused across fuzz iterations.
type appStatic struct {
	app      *apps.App
	analysis *absint.Analysis
	sites    map[string]discover.Site // alloc sites by name
}

var (
	staticOnce sync.Once
	staticApps []appStatic
)

// staticTable analyzes every registered application once.
func staticTable(t testing.TB) []appStatic {
	staticOnce.Do(func() {
		for _, a := range apps.All() {
			an, err := absint.Analyze(a.Program)
			if err != nil {
				t.Fatalf("%s: %v", a.Short, err)
			}
			triaged, err := a.Triaged()
			if err != nil {
				t.Fatalf("%s: %v", a.Short, err)
			}
			sites := make(map[string]discover.Site)
			for _, s := range triaged {
				if s.Kind == discover.KindAlloc {
					sites[s.Name] = s
				}
			}
			staticApps = append(staticApps, appStatic{app: a, analysis: an, sites: sites})
		}
	})
	return staticApps
}

// FuzzAbsintSoundness is the differential soundness oracle for the abstract
// interpreter: run a benchmark application concretely on fuzzed input bytes
// and assert that every dynamically observed allocation size lies inside the
// static interval/known-bits value computed for that site — and that no site
// the static triage called safe ever wraps at runtime.
//
// The first input byte selects the application; the rest is the guest input.
// Any divergence is a real soundness bug: the abstract domain must
// over-approximate every concrete execution, whatever the input.
func FuzzAbsintSoundness(f *testing.F) {
	table := staticTable(f)
	for i, as := range table {
		f.Add(append([]byte{byte(i)}, as.app.Format.Seed...))
		// Truncated and empty guest inputs exercise the InLen-guarded paths.
		f.Add(append([]byte{byte(i)}, as.app.Format.Seed[:len(as.app.Format.Seed)/2]...))
		f.Add([]byte{byte(i)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		as := table[int(data[0])%len(table)]
		input := data[1:]
		out := interp.Run(as.app.Program, input, interp.Options{Fuel: 133_000})
		for _, ev := range out.Allocs {
			site, ok := as.sites[ev.Site]
			if !ok {
				// Discovery deliberately enumerates only allocations with
				// statically tainted sizes; constant-size allocs (e.g. fixed
				// staging buffers) have no triage entry to check against.
				continue
			}
			v, ok := as.analysis.ValueAt(site.Func, site.Path+".size")
			if !ok {
				t.Fatalf("%s: site %s executed dynamically but statically unreachable", as.app.Short, ev.Site)
			}
			if err := v.Contains(lang.Width(ev.Width), ev.Size, ev.Wrapped); err != nil {
				t.Fatalf("%s: site %s concrete size escapes static value: %v", as.app.Short, ev.Site, err)
			}
			if site.Triage == discover.TriageSafe && ev.Wrapped {
				t.Fatalf("%s: site %s triaged safe but wrapped dynamically (size=%d)", as.app.Short, ev.Site, ev.Size)
			}
		}
	})
}
