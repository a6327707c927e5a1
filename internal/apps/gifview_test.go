package apps

import (
	"slices"
	"testing"

	"diode/internal/bv"
	"diode/internal/field"
	"diode/internal/formats"
	"diode/internal/interp"
)

// Second-frame field offsets in formats.SGIFAppendFrame output when applied
// to the canonical seed: the appended image block starts at the old trailer
// position (81), so its descriptor begins at 82.
const (
	sgif2ndDesc   = formats.SGIFSeedLength // 0x2C separator at 81, descriptor at 82
	sgif2ndWidth  = sgif2ndDesc + 4        // left(2) top(2) precede width
	sgif2ndHeight = sgif2ndDesc + 6
)

// TestGIFViewMultiFrame pins that the taint and trace layers handle
// repeated-frame field structure: a two-image-block SGIF file drives
// gif_decode_frame twice, and the second pass's allocation events must carry
// the *second* descriptor's bytes through taint and symbolic recording, with
// the per-frame checksum branch recorded once per block.
func TestGIFViewMultiFrame(t *testing.T) {
	app := GIFView()
	multi := formats.SGIFAppendFrame(app.Format.Seed, 3, 1, 33, 21)
	if err := app.Format.Validate(multi); err != nil {
		t.Fatalf("two-frame input rejected by format validation: %v", err)
	}
	if len(multi) != formats.SGIFSeedLength+19 {
		t.Fatalf("appended frame layout drifted: len=%d", len(multi))
	}

	m := interp.NewMachine(app.Compiled())
	m.Reset(multi, interp.Options{Symbolic: everyByte(field.MustMap(nil), len(multi))})
	out := m.Run()
	if out.Kind != interp.OutOK {
		t.Fatalf("two-frame parse ended %v (%s, err=%v)", out.Kind, out.AbortMsg, out.Err)
	}

	var frames []interp.AllocEvent
	for _, ev := range out.Allocs {
		if ev.Site == "gifview:gif.c@466" {
			frames = append(frames, ev)
		}
	}
	if len(frames) != 2 {
		t.Fatalf("frame-buffer site executed %d times, want 2 (one per image block)", len(frames))
	}

	// First frame: seed descriptor 50x40 at *2 bytes per pixel.
	if frames[0].Size != 50*40*2 {
		t.Errorf("first frame size = %d, want %d", frames[0].Size, 50*40*2)
	}
	// Second frame: the appended 33x21 descriptor.
	if frames[1].Size != 33*21*2 {
		t.Errorf("second frame size = %d, want %d", frames[1].Size, 33*21*2)
	}

	// Taint: the second allocation's size must be influenced by the second
	// descriptor's width/height bytes and by none of the first descriptor's.
	for _, off := range []int{sgif2ndWidth, sgif2ndWidth + 1, sgif2ndHeight, sgif2ndHeight + 1} {
		if !slices.Contains(frames[1].Taint.Elems(), off) {
			t.Errorf("second frame size not tainted by second-descriptor byte %d (taint %v)",
				off, frames[1].Taint.Elems())
		}
		if slices.Contains(frames[0].Taint.Elems(), off) {
			t.Errorf("first frame size tainted by second-descriptor byte %d", off)
		}
	}
	if slices.Contains(frames[1].Taint.Elems(), formats.SGIFImgDesc+4) {
		t.Errorf("second frame size tainted by first-descriptor width byte")
	}

	// Symbolic recording: the second allocation's size expression ranges over
	// the second frame's input bytes.
	vars := bv.BoolVars(bv.Eq(frames[1].Sym, bv.Const(frames[1].Sym.W, 0)))
	for _, name := range []string{"in[86]", "in[87]", "in[88]", "in[89]"} {
		if _, ok := vars[name]; !ok {
			t.Errorf("second frame symbolic size missing %s (vars %v)", name, vars.Names())
		}
	}

	// Trace: the per-image checksum branch is recorded once per block.
	crc := 0
	for _, br := range out.Branches {
		if br.Label == "gif.c@crc" {
			crc++
		}
	}
	if crc != 2 {
		t.Errorf("checksum branch recorded %d times, want 2 (once per image block)", crc)
	}
}

// TestGIFViewMultiFrameGenerate pins the generator/fix-up chain on
// multi-frame files: patching first-frame fields of a two-frame input must
// re-fix both image checksums, keeping the file parseable end to end.
func TestGIFViewMultiFrameGenerate(t *testing.T) {
	app := GIFView()
	multi := formats.SGIFAppendFrame(app.Format.Seed, 0, 0, 9, 5)
	gen := app.Format.Generator()
	patched, err := gen.Generate(multi, bv.Assignment{"/img/width": 61, "/img/height": 47})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Format.Validate(patched); err != nil {
		t.Fatalf("patched two-frame input fails validation: %v", err)
	}
	m := interp.NewMachine(app.Compiled())
	m.Reset(patched, interp.Options{})
	out := m.Run()
	if out.Kind != interp.OutOK {
		t.Fatalf("patched two-frame parse ended %v (%s)", out.Kind, out.AbortMsg)
	}
	var sizes []uint64
	for _, ev := range out.Allocs {
		if ev.Site == "gifview:gif.c@466" {
			sizes = append(sizes, ev.Size)
		}
	}
	if len(sizes) != 2 || sizes[0] != 61*47*2 || sizes[1] != 9*5*2 {
		t.Fatalf("frame sizes after patch = %v, want [%d %d]", sizes, 61*47*2, 9*5*2)
	}
}
