package formats

import (
	"testing"

	"diode/internal/bv"
	"diode/internal/field"
)

// These native fuzz targets pin the fix-up correctness invariant the Hunt
// loop depends on: for ANY field assignment, Generator().Generate must yield
// an input that still passes the format's Validate — i.e. the fix-up passes
// (checksum recalculation, frame/strip size repair) always restore
// structural well-formedness after solver-chosen values are patched in.
// A violation would silently turn solver models into inputs the guest
// parser rejects before reaching the interesting fields.
//
// The fuzz input is interpreted as a value stream: each field consumes
// Size bytes (big-endian, cycling through the data), plus one leading mask
// byte per field deciding whether the field is assigned at all — so partial
// assignments (the common solver case) are exercised too.

// fuzzAssignment derives a (possibly partial) field assignment from raw
// fuzz bytes.
func fuzzAssignment(specs []field.Spec, data []byte) bv.Assignment {
	asn := bv.Assignment{}
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b
	}
	for _, s := range specs {
		if next()&1 == 0 {
			continue // leave the field unassigned: it keeps its seed value
		}
		var v uint64
		for i := 0; i < s.Size; i++ {
			v = v<<8 | uint64(next())
		}
		asn[s.Name] = v
	}
	return asn
}

func fuzzFormat(f *testing.F, mk func() *Format) {
	format := mk()
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x00, 0x00, 0x03, 0x80, 0x00, 0xFF, 0x01, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		asn := fuzzAssignment(format.Fields.Specs(), data)
		out, err := format.Generator().Generate(format.Seed, asn)
		if err != nil {
			t.Fatalf("%s: generate: %v", format.Name, err)
		}
		if err := format.Validate(out); err != nil {
			t.Fatalf("%s: generated input fails validation (fix-up invariant broken): %v", format.Name, err)
		}
		// Every assigned field must carry its value in the output; fix-ups
		// may only touch non-field bytes (checksums, frame sizes).
		got := format.Fields.SeedAssignment(out)
		for name, v := range asn {
			if got[name] != v {
				t.Fatalf("%s: field %s = %d after generation, want %d", format.Name, name, got[name], v)
			}
		}
	})
}

func FuzzSPNG(f *testing.F) { fuzzFormat(f, SPNG) }
func FuzzSWAV(f *testing.F) { fuzzFormat(f, SWAV) }
func FuzzSJPG(f *testing.F) { fuzzFormat(f, SJPG) }
func FuzzSXWD(f *testing.F) { fuzzFormat(f, SXWD) }
func FuzzSGIF(f *testing.F) { fuzzFormat(f, SGIF) }
func FuzzSTIF(f *testing.F) { fuzzFormat(f, STIF) }
