// Package formats defines the synthetic input formats the benchmark
// applications consume. Each format is structurally faithful to the family
// the paper's applications parse — chunked with checksums (PNG), RIFF-framed
// (WAV), marker-segmented (JPEG), fixed big-endian header (XWD) — so
// that the whole Hachoir/Peach pipeline is exercised: generated inputs must
// have their checksums and frame sizes reconstructed before the parser will
// reach the interesting fields.
//
// Every format supplies a canonical seed input (which the application
// processes correctly, with no overflows), the field dictionary for solver
// variables, and the fix-up passes input generation runs after patching
// field values.
package formats

import (
	"encoding/binary"
	"fmt"

	"diode/internal/field"
	"diode/internal/inputgen"
)

// Format bundles everything DIODE needs to generate inputs for one file type.
type Format struct {
	// Name identifies the format (e.g. "spng").
	Name string
	// Seed is the canonical well-formed input.
	Seed []byte
	// Fields maps byte ranges to named input fields.
	Fields *field.Map
	// Fixups are the reconstruction passes (checksums, frame sizes).
	Fixups []inputgen.Fixup
	// Validate checks structural well-formedness; used by tests.
	Validate func(data []byte) error
}

// Generator returns an input generator for the format.
func (f *Format) Generator() *inputgen.Generator {
	return inputgen.New(f.Fields, f.Fixups...)
}

// be32 writes a big-endian 32-bit value.
func be32(b []byte, off int, v uint32) { binary.BigEndian.PutUint32(b[off:off+4], v) }

// rdbe32 reads a big-endian 32-bit value.
func rdbe32(b []byte, off int) uint32 { return binary.BigEndian.Uint32(b[off : off+4]) }

// le32 writes a little-endian 32-bit value.
func le32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:off+4], v) }

// rdle32 reads a little-endian 32-bit value.
func rdle32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off : off+4]) }

// le16 writes a little-endian 16-bit value.
func le16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:off+2], v) }

// be16 writes a big-endian 16-bit value.
func be16(b []byte, off int, v uint16) { binary.BigEndian.PutUint16(b[off:off+2], v) }

// sum32 is the additive 32-bit checksum used by the chunked formats: the sum
// of the covered bytes modulo 2^32. (A stand-in for CRC-32 with the same
// fix-up discipline but solver-friendly algebra.)
func sum32(b []byte) uint32 {
	var s uint32
	for _, x := range b {
		s += uint32(x)
	}
	return s
}

func structErr(format, msg string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", format, fmt.Sprintf(msg, args...))
}
