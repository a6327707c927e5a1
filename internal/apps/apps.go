// Package apps contains the benchmark guest applications, re-authored in the
// core language, and the registry the harness and CLIs resolve them from.
//
// The registry is split in two:
//
//   - Paper returns the paper's five applications — Dillo 2.1, VLC 0.8.6h,
//     SwfPlay 0.5.5, CWebP 0.3.1 and ImageMagick 6.5.2 — each engineered so
//     the measured evaluation matches the paper's Table 1 site
//     classification, the enforced-branch regimes of Table 2, the
//     same-path/blocking-check structure of §5.4 and the bimodal success
//     rates of §5.5. Their PaperSite expectation tables live alongside the
//     programs.
//   - Extended returns the extended workload suite — GIFView 0.4 and
//     TIFThumb 0.2 — applications with no paper counterpart (Paper is nil
//     for them; reports render measured-only columns). They stress the
//     pipeline with input shapes the paper's formats never produce:
//     sub-block framed chains, offset indirection, little-endian dimension
//     fields and full-width 32-bit size fields.
//
// All returns both groups; ByName resolves any registered application.
package apps

import (
	"fmt"
	"strings"
	"sync"

	"diode/internal/absint"
	"diode/internal/cache"
	"diode/internal/discover"
	"diode/internal/formats"
	"diode/internal/interp"
	"diode/internal/lang"
)

// Class is the paper's Table 1 site classification.
type Class int

// Site classifications.
const (
	ClassExposed   Class = iota // DIODE exposes an overflow
	ClassUnsat                  // the target constraint alone is unsatisfiable
	ClassPrevented              // sanity checks prevent any overflow
)

func (c Class) String() string {
	switch c {
	case ClassExposed:
		return "exposed"
	case ClassUnsat:
		return "unsatisfiable"
	}
	return "sanity-prevented"
}

// PaperSite records what the paper reports for one target site, for the
// paper-vs-measured comparison in the reports.
type PaperSite struct {
	Site string
	// Class is the Table 1 classification.
	Class Class
	// CVE is the CVE number for previously-known overflows, "New" otherwise.
	// Empty for non-exposed sites.
	CVE string
	// ErrorType is the paper's Table 2 error type, e.g. "SIGSEGV/InvalidRead".
	ErrorType string
	// EnforcedX/EnforcedY are the paper's "X/Y" enforced-branch entry.
	EnforcedX, EnforcedY int
	// TargetRate is the paper's §5.5 success count out of TargetRateOf.
	TargetRate, TargetRateOf int
	// EnforcedRate is the paper's §5.6 success count out of 200 (-1 = N/A).
	EnforcedRate int
	// SamePathSat reports the §5.4 property: an overflow exists on the very
	// path the seed took (no blocking checks bind).
	SamePathSat bool
}

// App is one benchmark application: its guest program, input format and the
// paper's expectations.
type App struct {
	// Name is the application name with version, as in the paper's tables.
	Name string
	// Short is the registry key (e.g. "dillo").
	Short string
	// Program is the guest program; already finalized.
	Program *lang.Program
	// Format describes the input file type and supplies the seed.
	Format *formats.Format
	// Paper lists the paper's per-site expectations.
	Paper []PaperSite

	compileOnce sync.Once
	compiled    *interp.Compiled

	fpOnce sync.Once
	fp     string

	discoverOnce sync.Once
	discovered   []discover.Site
	discoverErr  error

	triageOnce sync.Once
	triaged    []discover.Site
	triageErr  error

	probeMu sync.Mutex
	probes  map[string]*App

	// base is the application a Probe instance was derived from; nil for a
	// registry application.
	base *App
}

// Compiled returns the application's guest program in slot-resolved compiled
// form, compiling on first use. The result is immutable and shared: every
// Analyzer, Hunter and experiment path holding this *App executes the same
// Compiled on its own private interp.Machine, so a sweep pays program
// analysis once per application rather than once per site or per run. Safe
// for concurrent use.
func (a *App) Compiled() *interp.Compiled {
	a.compileOnce.Do(func() { a.compiled = interp.Compile(a.Program) })
	return a.compiled
}

// Fingerprint returns the application's canonical content hash — the cache
// identity of its guest program and input format, computed once per instance
// under sync.Once like Compiled(). Registry constructors build applications
// deterministically, so every instance of an application fingerprints equal,
// in every process: the dispatch layer keys shared caches on it.
func (a *App) Fingerprint() string {
	a.fpOnce.Do(func() { a.fp = cache.Fingerprint(a.Program, a.Format) })
	return a.fp
}

// Discovered returns the application's statically discovered overflow
// sites in deterministic program-traversal order, running the discovery
// pass once per instance under sync.Once like Compiled(). The curated
// Paper tables are expectations layered over this list: every PaperSite
// names an alloc-kind site that discovery must also find (pinned by
// TestPaperSitesAreDiscovered). Safe for concurrent use.
func (a *App) Discovered() ([]discover.Site, error) {
	a.discoverOnce.Do(func() { a.discovered, a.discoverErr = discover.Sites(a.Program) })
	return a.discovered, a.discoverErr
}

// Triaged returns the application's discovered sites annotated with the
// static value-range triage (absint pass), computed once per instance under
// sync.Once like Discovered(). Safe for concurrent use.
func (a *App) Triaged() ([]discover.Site, error) {
	a.triageOnce.Do(func() {
		sites, err := a.Discovered()
		if err != nil {
			a.triageErr = err
			return
		}
		an, err := absint.Analyze(a.Program)
		if err != nil {
			a.triageErr = fmt.Errorf("apps: %s: triage analysis: %w", a.Short, err)
			return
		}
		a.triaged = an.TriageSites(sites)
	})
	return a.triaged, a.triageErr
}

// Sites returns the site list every pipeline stage works from: the triaged
// list, or the raw discovery records under the NoTriage ablation. A triage
// failure is returned, never papered over with the untriaged records. A
// Probe instance returns its base application's list: its probe allocation
// carries the arith site's name, so the arith site's record is the one its
// hunt reports, and the probe program itself is never discovered or
// triaged.
func (a *App) Sites(noTriage bool) ([]discover.Site, error) {
	if a.base != nil {
		return a.base.Sites(noTriage)
	}
	if noTriage {
		return a.Discovered()
	}
	return a.Triaged()
}

// Probe returns the derived application that hunts the named arith site:
// the guest program instrumented with a probe allocation at the arith node
// (discover.Probe), sharing the original's format and site list (Sites) but
// with no paper expectations. Instances are memoized per site, so the
// derived program's compiled form, fingerprint and analyses warm up once.
// The derived Short is suffixed with the site so a cache that indexes
// instances by short name can never shadow the base application with a
// probe variant. Safe for concurrent use.
func (a *App) Probe(site string) (*App, error) {
	a.probeMu.Lock()
	defer a.probeMu.Unlock()
	if p, ok := a.probes[site]; ok {
		return p, nil
	}
	sites, err := a.Discovered()
	if err != nil {
		return nil, err
	}
	var rec *discover.Site
	for i := range sites {
		if sites[i].Name == site {
			rec = &sites[i]
			break
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("apps: %s has no discovered site %q", a.Short, site)
	}
	prog, err := discover.Probe(a.Program, *rec)
	if err != nil {
		return nil, err
	}
	p := &App{Name: a.Name, Short: a.Short + "!" + site, Program: prog, Format: a.Format, base: a}
	if a.probes == nil {
		a.probes = make(map[string]*App)
	}
	a.probes[site] = p
	return p, nil
}

// PaperFor returns the paper expectations for a site.
func (a *App) PaperFor(site string) (PaperSite, bool) {
	for _, p := range a.Paper {
		if p.Site == site {
			return p, true
		}
	}
	return PaperSite{}, false
}

// The registry is built once per process and shared: application
// constructors are deterministic, and *App's derived state (Compiled,
// Fingerprint, Discovered) is immutable once computed, so sharing
// instances means those warm-ups are paid once rather than per lookup.
var (
	registryOnce sync.Once
	paperApps    []*App
	extendedApps []*App
	byShort      map[string]*App
)

func registry() {
	registryOnce.Do(func() {
		paperApps = []*App{Dillo(), VLC(), SwfPlay(), CWebP(), ImageMagick()}
		extendedApps = []*App{GIFView(), TIFThumb()}
		byShort = make(map[string]*App, len(paperApps)+len(extendedApps))
		for _, a := range paperApps {
			byShort[a.Short] = a
		}
		for _, a := range extendedApps {
			byShort[a.Short] = a
		}
	})
}

// Paper returns the paper's five benchmark applications in the paper's
// table order. The instances are shared across calls.
func Paper() []*App {
	registry()
	return append([]*App(nil), paperApps...)
}

// Extended returns the extended workload suite: benchmark applications with
// no paper counterpart, evaluated with measured-only reporting. The
// instances are shared across calls.
func Extended() []*App {
	registry()
	return append([]*App(nil), extendedApps...)
}

// All returns every registered benchmark application: the paper suite
// followed by the extended suite. The instances are shared across calls.
func All() []*App {
	return append(Paper(), Extended()...)
}

// ByName returns the application with the given short name.
func ByName(short string) (*App, error) {
	registry()
	if a, ok := byShort[short]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("apps: unknown application %q (known: %s)", short, strings.Join(Shorts(All()), ", "))
}

// Shorts returns the short names of the given applications.
func Shorts(list []*App) []string {
	out := make([]string, len(list))
	for i, a := range list {
		out[i] = a.Short
	}
	return out
}

func mustFinalize(p *lang.Program) *lang.Program {
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// --- shared guest-code helpers: endian readers as guest procedures ---

// readBE32 defines a procedure reading a big-endian 32-bit value at offset
// "off" (32-bit), reproducing the byte swizzle real parsers perform (and
// therefore the swizzle structure of the recorded symbolic expressions).
func readBE32(name string) *lang.Func {
	b := func(k uint64) lang.Expr {
		return lang.ZX(32, lang.In(lang.Add(lang.V("off"), lang.U32(k))))
	}
	return lang.Fn(name, []string{"off"},
		lang.Ret(lang.BitOr(
			lang.BitOr(
				lang.Shl(b(0), lang.U32(24)),
				lang.Shl(b(1), lang.U32(16))),
			lang.BitOr(
				lang.Shl(b(2), lang.U32(8)),
				b(3)))),
	)
}

// readBE16 reads a big-endian 16-bit value (zero-extended to 32 bits).
func readBE16(name string) *lang.Func {
	b := func(k uint64) lang.Expr {
		return lang.ZX(32, lang.In(lang.Add(lang.V("off"), lang.U32(k))))
	}
	return lang.Fn(name, []string{"off"},
		lang.Ret(lang.BitOr(lang.Shl(b(0), lang.U32(8)), b(1))),
	)
}

// readLE32 reads a little-endian 32-bit value.
func readLE32(name string) *lang.Func {
	b := func(k uint64) lang.Expr {
		return lang.ZX(32, lang.In(lang.Add(lang.V("off"), lang.U32(k))))
	}
	return lang.Fn(name, []string{"off"},
		lang.Ret(lang.BitOr(
			lang.BitOr(b(0), lang.Shl(b(1), lang.U32(8))),
			lang.BitOr(
				lang.Shl(b(2), lang.U32(16)),
				lang.Shl(b(3), lang.U32(24))))),
	)
}

// readLE16 reads a little-endian 16-bit value (zero-extended to 32 bits).
func readLE16(name string) *lang.Func {
	b := func(k uint64) lang.Expr {
		return lang.ZX(32, lang.In(lang.Add(lang.V("off"), lang.U32(k))))
	}
	return lang.Fn(name, []string{"off"},
		lang.Ret(lang.BitOr(b(0), lang.Shl(b(1), lang.U32(8)))),
	)
}

// chunkChecksum defines a procedure computing the additive 32-bit checksum
// over [start, start+count) input bytes — the guest-side counterpart of the
// formats' sum32.
func chunkChecksum(name string) *lang.Func {
	return lang.Fn(name, []string{"start", "count"},
		lang.Let("sum", lang.U32(0)),
		lang.Let("i", lang.U32(0)),
		lang.Loop(name+"/loop", lang.Ult(lang.V("i"), lang.V("count")),
			lang.Let("sum", lang.Add(lang.V("sum"),
				lang.ZX(32, lang.In(lang.Add(lang.V("start"), lang.V("i")))))),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
		lang.Ret(lang.V("sum")),
	)
}
