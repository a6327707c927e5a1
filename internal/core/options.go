package core

import (
	"encoding/binary"
	"hash/fnv"

	"diode/internal/solver"
)

// Settings are the serializable, verdict-affecting pipeline options — the
// record a dispatch job carries (dispatch.Options is this type) and the
// options half of every cache key. Options embeds them next to the run seed
// and the live progress hook, so each knob is declared exactly once. The JSON
// tags are the diode-worker wire format and the canonical cache-key
// encoding: renaming one invalidates every stored result. The zero value
// means the defaults.
type Settings struct {
	// InitialAttempts is how many distinct target-constraint models are
	// tried before branch enforcement begins (Figure 7 lines 3–6 try one;
	// sampling a few more makes the implementation robust to unlucky
	// draws). Zero means the default (6).
	InitialAttempts int `json:"initialAttempts,omitempty"`
	// MaxEnforce bounds the number of enforcement iterations. Zero means
	// the default (40).
	MaxEnforce int `json:"maxEnforce,omitempty"`
	// Fuel bounds guest execution steps per run. Zero means the default
	// (50 million).
	Fuel int64 `json:"fuel,omitempty"`
	// SolverMode selects the constraint-solving strategy (ablation hook).
	SolverMode solver.Mode `json:"solverMode,omitempty"`
	// OneShotSampling disables restart-based model sampling: SampleModels
	// then enumerates via guard-literal blocking clauses on every draw, the
	// pre-restart behavior (benchmark/ablation hook — see
	// BenchmarkSampleModels). The default path re-randomizes decision
	// polarities and activities on the persistent engine between samples and
	// falls back to blocking only to certify exhaustion.
	OneShotSampling bool `json:"oneShotSampling,omitempty"`
	// DisableCompression skips Figure 8 branch-condition compression
	// (ablation hook).
	DisableCompression bool `json:"disableCompression,omitempty"`
	// DisableRelevanceFilter keeps branches that share no input variable
	// with the target constraint (ablation hook).
	DisableRelevanceFilter bool `json:"disableRelevanceFilter,omitempty"`
	// NoTriage disables the static value-range triage (ablation hook): the
	// Analyzer then works from the raw discovery records and the Hunter
	// never short-circuits on a triage verdict — every site, including
	// statically-safe arith sites, is hunted dynamically. The curated alloc
	// tables are identical either way (safe alloc sites always hunt fully);
	// the flag exists to measure what the triage pruning saves on the
	// extended arith surface.
	NoTriage bool `json:"noTriage,omitempty"`
}

// Core expands the settings into full pipeline options with the given seed.
func (s Settings) Core(seed int64) Options { return Options{Seed: seed, Settings: s} }

// Options configure the Analyzer and Hunter.
type Options struct {
	// Seed seeds all randomness; identical seeds give identical hunts. Each
	// site's hunt draws from a private solver seeded with
	// SiteSeed(Seed, site), so results do not depend on hunt order.
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

func (o Options) withDefaults() Options {
	if o.InitialAttempts == 0 {
		o.InitialAttempts = 6
	}
	if o.MaxEnforce == 0 {
		o.MaxEnforce = 40
	}
	if o.Fuel == 0 {
		o.Fuel = 50_000_000
	}
	return o
}

// ForSite returns a copy of o whose Seed is the deterministic per-site hunt
// seed. Every per-site hunt is seeded this way.
func (o Options) ForSite(site string) Options {
	o.Seed = SiteSeed(o.Seed, site)
	return o
}

// SiteSeed derives the deterministic per-site hunt seed from the run seed
// and the site name. Because every Hunter is seeded this way regardless of
// which worker picks the site up — or in what order — a parallel sweep
// produces byte-identical verdicts to a sequential one.
func SiteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(site))
	return int64(h.Sum64())
}
