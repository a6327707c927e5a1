package core

import (
	"encoding/binary"
	"hash/fnv"
)

// Settings are the serializable, verdict-affecting pipeline options — the
// record a dispatch job carries (dispatch.Options is this type) and the
// options half of every cache key. Options embeds them next to the run seed
// and the live progress hook, so each knob is declared exactly once. The JSON
// tags are the diode-worker wire format and the canonical cache-key
// encoding: renaming one invalidates every stored result. The zero value
// means the defaults. Everything no sweep varies is a constant instead:
// initialAttempts and maxEnforce below, and interp.DefaultFuel per guest run.
type Settings struct {
	// NoTriage disables the static value-range triage (ablation hook): the
	// Analyzer then works from the raw discovery records and the Hunter
	// never short-circuits on a triage verdict — every site, including
	// statically-safe arith sites, is hunted dynamically. The curated alloc
	// tables are identical either way (safe alloc sites always hunt fully);
	// the flag exists to measure what the triage pruning saves on the
	// extended arith surface.
	NoTriage bool `json:"noTriage,omitempty"`
}

// The Figure 7 loop's fixed budget.
const (
	// initialAttempts is how many distinct target-constraint models are
	// tried before branch enforcement begins (Figure 7 lines 3–6 try one;
	// sampling a few more makes the implementation robust to unlucky draws).
	initialAttempts = 6
	// maxEnforce bounds the number of enforcement iterations.
	maxEnforce = 40
)

// Core expands the settings into full pipeline options with the given seed.
func (s Settings) Core(seed int64) Options { return Options{Seed: seed, Settings: s} }

// Options configure the Analyzer and Hunter.
type Options struct {
	// Seed seeds all randomness; identical seeds give identical hunts. A
	// Hunter uses it verbatim for its private solver; every sweep passes
	// the per-site seed dispatch.SiteJob derives from the run seed,
	// SiteSeed(SiteSeed(seed, app), site), so results do not depend on hunt
	// order.
	Seed int64
	Settings
	// Progress, when non-nil, is called at the top of every Figure 7
	// enforcement iteration with the 0-based iteration number. It is a live
	// observation hook (the dispatch layer's Sink rides on it); it runs on
	// the hunting goroutine, so implementations must be fast and must not
	// call back into the Hunter. It is not part of the serializable
	// Settings.
	Progress func(iteration int)
}

// SiteSeed mixes a name into a seed. dispatch.SiteJob applies it twice to
// derive a job's seed from the run seed, SiteSeed(SiteSeed(seed, app),
// site). Because every Hunter is seeded this way regardless of which worker
// picks the site up — or in what order — a parallel sweep produces
// byte-identical verdicts to a sequential one.
func SiteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(site))
	return int64(h.Sum64())
}
