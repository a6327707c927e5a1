package formats

import (
	"bytes"
	"testing"

	"diode/internal/bv"
	"diode/internal/interp"
	"diode/internal/lang"
)

func all() []*Format {
	return []*Format{SPNG(), SWAV(), SJPG(), SXWD(), SGIF(), STIF()}
}

func TestSeedsValidate(t *testing.T) {
	for _, f := range all() {
		if err := f.Validate(f.Seed); err != nil {
			t.Errorf("%s: seed does not validate: %v", f.Name, err)
		}
	}
}

func TestSeedsDeterministic(t *testing.T) {
	builders := map[string]func() *Format{
		"spng": SPNG, "swav": SWAV, "sjpg": SJPG, "sxwd": SXWD,
		"sgif": SGIF, "stif": STIF,
	}
	for name, mk := range builders {
		a, b := mk(), mk()
		if !bytes.Equal(a.Seed, b.Seed) {
			t.Errorf("%s: seed construction is not deterministic", name)
		}
	}
}

func TestFieldsReadSeedValues(t *testing.T) {
	checks := map[string]map[string]uint64{
		"spng": {
			"/ihdr/width": 280, "/ihdr/height": 160, "/ihdr/bit_depth": 8,
			"/ihdr/color_type": 2, "/plte/entries": 16, "/gama/gamma": 300,
		},
		"swav": {
			"/fmt/size": 16, "/fmt/channels": 2, "/fmt/rate": 44100,
			"/fmt/bits": 16, "/note/len": 20, "/data/frames": 14,
		},
		"sjpg": {
			"/sof/height": 120, "/sof/width": 200, "/sof/ncomp": 3,
			"/sof/precision": 8,
		},
		"sxwd": {
			"/xwd/width": 320, "/xwd/height": 200, "/xwd/depth": 24,
			"/xwd/ncolors": 8, "/xwd/bytes_per_line": 960,
		},
		"sgif": {
			"/lsd/width": 640, "/lsd/height": 480, "/lsd/flags": 0x82,
			"/img/left": 12, "/img/top": 8, "/img/width": 50,
			"/img/height": 40, "/img/lzwmin": 8,
		},
		"stif": {
			"/ifd/width": 64, "/ifd/height": 48, "/ifd/bits": 8,
			"/ifd/rows_per_strip": 16,
		},
	}
	for _, f := range all() {
		want, ok := checks[f.Name]
		if !ok {
			t.Fatalf("no checks for format %s", f.Name)
		}
		asn := f.Fields.SeedAssignment(f.Seed)
		for name, v := range want {
			if got := asn[name]; got != v {
				t.Errorf("%s %s = %d, want %d", f.Name, name, got, v)
			}
		}
	}
}

// TestGenerateRoundTrip patches field values, reruns fix-ups, and checks that
// the output still validates and carries the new values.
func TestGenerateRoundTrip(t *testing.T) {
	for _, f := range all() {
		specs := f.Fields.Specs()
		asn := bv.Assignment{}
		// Change the first two multi-byte fields to new in-range values.
		changed := 0
		for _, s := range specs {
			if s.Size >= 2 && changed < 2 {
				asn[s.Name] = 0x1234 % (uint64(1)<<uint(8*s.Size) - 1)
				changed++
			}
		}
		out, err := f.Generator().Generate(f.Seed, asn)
		if err != nil {
			t.Fatalf("%s: generate: %v", f.Name, err)
		}
		if err := f.Validate(out); err != nil {
			t.Errorf("%s: generated input does not validate: %v", f.Name, err)
		}
		got := f.Fields.SeedAssignment(out)
		for name, v := range asn {
			if got[name] != v {
				t.Errorf("%s: %s = %d after generation, want %d", f.Name, name, got[name], v)
			}
		}
		if bytes.Equal(out, f.Seed) {
			t.Errorf("%s: generation did not change the file", f.Name)
		}
	}
}

// TestSPNGChecksumRepair corrupts a checksum-covered field and checks the
// fix-up repairs exactly the checksums.
func TestSPNGChecksumRepair(t *testing.T) {
	f := SPNG()
	data := append([]byte(nil), f.Seed...)
	data[SPNGIHDRData] = 0xAB // clobber width's top byte
	if err := f.Validate(data); err == nil {
		t.Fatal("corrupted file unexpectedly validates")
	}
	FixSPNGChecksums(data)
	if err := f.Validate(data); err != nil {
		t.Fatalf("fix-up did not repair checksums: %v", err)
	}
}

func TestSPNGChecksumFixupStopsAtBadLength(t *testing.T) {
	f := SPNG()
	data := append([]byte(nil), f.Seed...)
	// Declare an absurd IHDR length: the walker must stop, not panic.
	be32(data, 8, 0xFFFFFF)
	FixSPNGChecksums(data)
}

func TestRIFFSizeFixups(t *testing.T) {
	f := SWAV()
	data := append(append([]byte(nil), f.Seed...), 1, 2, 3, 4) // grow file
	f.Fixups[0](data)
	if got := rdle32(data, 4); got != uint32(len(data)-8) {
		t.Errorf("%s: riff size %d, want %d", f.Name, got, len(data)-8)
	}
}

// TestSGIFChecksumRepair corrupts a checksum-covered field and checks the
// fix-up repairs the image checksum through the sub-block framing.
func TestSGIFChecksumRepair(t *testing.T) {
	f := SGIF()
	data := append([]byte(nil), f.Seed...)
	le16(data, SGIFImgDesc+4, 0xBEEF) // clobber the frame width
	if err := f.Validate(data); err == nil {
		t.Fatal("corrupted file unexpectedly validates")
	}
	FixSGIFChecksums(data)
	if err := f.Validate(data); err != nil {
		t.Fatalf("fix-up did not repair the checksum: %v", err)
	}
}

// TestSGIFFixupStopsAtBadFraming: a sub-block length running past EOF must
// stop the walker, not panic or write out of bounds.
func TestSGIFFixupStopsAtBadFraming(t *testing.T) {
	f := SGIF()
	data := append([]byte(nil), f.Seed...)
	data[SGIFSubBlocks] = 0xFF // first LZW sub-block claims 255 bytes
	FixSGIFChecksums(data)
	if err := f.Validate(data); err == nil {
		t.Fatal("unframed file unexpectedly validates")
	}
}

// TestSTIFStripBytesFixup: growing the file must be repaired through the
// IFD indirection, like the RIFF size fix-ups.
func TestSTIFStripBytesFixup(t *testing.T) {
	f := STIF()
	data := append(append([]byte(nil), f.Seed...), 1, 2, 3, 4)
	if err := f.Validate(data); err == nil {
		t.Fatal("grown file unexpectedly validates before fix-up")
	}
	FixSTIFStripBytes(data)
	if err := f.Validate(data); err != nil {
		t.Fatalf("fix-up did not repair strip byte counts: %v", err)
	}
	if got := rdle32(data, STIFCountsValue); got != uint32(len(data)-STIFStripData) {
		t.Errorf("strip byte count %d, want %d", got, len(data)-STIFStripData)
	}
}

// TestSTIFFixupSurvivesBadIFD: a header pointing the IFD past EOF must be
// left alone without panicking.
func TestSTIFFixupSurvivesBadIFD(t *testing.T) {
	f := STIF()
	data := append([]byte(nil), f.Seed...)
	le32(data, STIFIFDOffset, 0xFFFFFF)
	FixSTIFStripBytes(data)
	if err := f.Validate(data); err == nil {
		t.Fatal("file with out-of-bounds IFD unexpectedly validates")
	}
}

// TestLiftProducesFieldExpressions checks the Hachoir role end to end: a
// symbolic run that reads a big-endian field's bytes through the format's
// InputTerms table records the program's reassembly of them as an
// expression over the field variable, whose evaluation matches the
// byte-level reassembly.
func TestLiftProducesFieldExpressions(t *testing.T) {
	f := SPNG()
	// width = (in[16]<<24)|(in[17]<<16)|(in[18]<<8)|in[19], as Dillo reads it.
	b := func(i uint64) lang.Expr { return lang.ZX(32, lang.InAt(i)) }
	p := lang.NewProgram("spng-width")
	p.AddFunc(lang.Fn("main", nil, lang.AllocAt("buf", "t@1", lang.BitOr(
		lang.BitOr(lang.Shl(b(16), lang.U32(24)), lang.Shl(b(17), lang.U32(16))),
		lang.BitOr(lang.Shl(b(18), lang.U32(8)), b(19)),
	))))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	out := interp.Run(p, f.Seed, interp.Options{Symbolic: f.Fields.InputTerms([]int{16, 17, 18, 19})})
	if out.Kind != interp.OutOK {
		t.Fatalf("guest ended %v (%v)", out.Kind, out.Err)
	}
	lifted := out.Allocs[0].Sym
	vars := bv.BoolVars(bv.Eq(lifted, bv.Const(lifted.W, 0)))
	if _, ok := vars["/ihdr/width"]; !ok || len(vars) != 1 {
		t.Fatalf("expression does not range over /ihdr/width alone: %s", lifted)
	}
	v, err := bv.Assignment{"/ihdr/width": 0xDEADBEEF}.Eval(lifted)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("big-endian reassembly = %#x, want 0xDEADBEEF", v)
	}
}
