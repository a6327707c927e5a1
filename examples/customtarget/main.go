// Customtarget shows the downstream-user workflow: author a new guest
// application and input format, then point DIODE at it. The toy "thumbnail
// server" below reads a tiny header (magic, width, height, quality), guards
// the buffer size with a wrapping sanity check, and allocates w*h*3 — DIODE
// finds the inputs that slip through the check and overflow the allocation.
//
// Run with: go run ./examples/customtarget
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"diode"
	"diode/internal/apps"
	"diode/internal/field"
	"diode/internal/formats"
	. "diode/internal/lang"
)

// buildFormat describes the input file: 4-byte magic, then three
// little-endian 32-bit fields.
func buildFormat() *formats.Format {
	seed := []byte{'T', 'H', 'M', 'B',
		64, 0, 0, 0, // width = 64
		48, 0, 0, 0, // height = 48
		80, 0, 0, 0, // quality = 80
	}
	return &formats.Format{
		Name: "thmb",
		Seed: seed,
		Fields: field.MustMap([]field.Spec{
			{Name: "/thmb/width", Offset: 4, Size: 4, Order: field.LittleEndian},
			{Name: "/thmb/height", Offset: 8, Size: 4, Order: field.LittleEndian},
			{Name: "/thmb/quality", Offset: 12, Size: 4, Order: field.LittleEndian},
		}),
		Validate: func(data []byte) error {
			if len(data) < 16 || string(data[:4]) != "THMB" {
				return fmt.Errorf("thmb: bad magic")
			}
			return nil
		},
	}
}

// buildProgram is the guest application. The size check at thumb.c@31 is
// computed in wrapping 32-bit arithmetic — the classic vulnerable pattern.
func buildProgram() *Program {
	p := NewProgram("thumbd")
	rd := func(off uint64) Expr {
		b := func(k uint64) Expr { return ZX(32, InAt(off+k)) }
		return BitOr(BitOr(b(0), Shl(b(1), U32(8))),
			BitOr(Shl(b(2), U32(16)), Shl(b(3), U32(24))))
	}
	p.AddFunc(Fn("main", nil,
		IfThen("thumb.c@12", Or(
			Ne(ZX(32, InAt(0)), U32('T')),
			Ne(ZX(32, InAt(1)), U32('H'))),
			Abort("bad magic"),
		),
		Let("w", rd(4)),
		Let("h", rd(8)),
		Let("q", rd(12)),
		IfThen("thumb.c@24", Ugt(V("q"), U32(100)),
			Abort("quality out of range"),
		),
		// The vulnerable size check: w*h*3 computed with 32-bit wraparound.
		Let("sz", Mul(Mul(V("w"), V("h")), U32(3))),
		IfThen("thumb.c@31", Ugt(V("sz"), U32(0x4000000)),
			Abort("thumbnail too large"),
		),
		AllocAt("pixels", "thumbd:thumb.c@38", Mul(Mul(V("w"), V("h")), U32(3))),
		Put(V("pixels"),
			Sub(Mul(Mul(ZX(64, V("w")), ZX(64, V("h"))), U64(3)), U64(1)),
			U8(0)),
	))
	if err := p.Finalize(); err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	app := &apps.App{
		Name:    "thumbd 0.1 (custom)",
		Short:   "thumbd",
		Program: buildProgram(),
		Format:  buildFormat(),
	}
	ctx := context.Background()
	opts := diode.Options{Seed: 3}
	// Analyzing through a job cache registers the application with it, so
	// the hunt jobs below can name an application the registry never heard
	// of — the same pattern cmd/diode uses for the built-in ones.
	jc := diode.NewJobCache(diode.JobCacheConfig{})
	targets, err := jc.Targets(ctx, app, opts.Settings)
	if err != nil {
		log.Fatal(err)
	}
	results, err := diode.RunJobs(ctx, &diode.LocalBackend{Cache: jc}, diode.HuntJobsFor(app, opts, targets))
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].JobID < results[j].JobID })
	for _, r := range results {
		if r.Err != "" {
			log.Fatalf("%s: %s", r.Site, r.Err)
		}
		fmt.Printf("%s: %s\n", r.Site, r.Verdict)
		if r.Verdict != diode.VerdictExposed.String() {
			continue
		}
		fmt.Printf("  error: %s after enforcing %v\n", r.ErrorType, r.Enforced)
		for _, spec := range app.Format.Fields.Specs() {
			oldV, newV := spec.Read(app.Format.Seed), spec.Read(r.Input)
			if oldV != newV {
				fmt.Printf("  %-14s %d -> %d\n", spec.Name, oldV, newV)
			}
		}
		w := app.Format.Fields.Specs()[0].Read(r.Input)
		h := app.Format.Fields.Specs()[1].Read(r.Input)
		fmt.Printf("  ideal size w*h*3 = %d (wraps 32 bits), wrapped check passed\n", w*h*3)
	}
}
