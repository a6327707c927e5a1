package formats

import (
	"diode/internal/field"
	"diode/internal/inputgen"
)

// STIF is the TIFF-analogue format the TIFThumb benchmark processes: a
// little-endian header pointing at an image file directory (IFD) of tagged
// entries, with the offset indirection and strip bookkeeping of real TIFF:
//
//	"II" | 42(2 LE) | ifd_offset(4 LE)
//
// At ifd_offset: entry_count(2 LE), then 12-byte entries of the form
// tag(2 LE) | type(2 LE) | count(4 LE) | value(4 LE), then a next-IFD
// offset (0). The entries carry ImageWidth (256), ImageLength (257),
// BitsPerSample (258), StripOffsets (273, pointing at the strip data
// elsewhere in the file), RowsPerStrip (278) and StripByteCounts (279,
// which must equal the bytes from the strip offset to EOF and is maintained
// by a fix-up, like the RIFF size field in SWAV).

// STIF tag numbers.
const (
	STIFTagWidth        = 256
	STIFTagHeight       = 257
	STIFTagBits         = 258
	STIFTagStripOffsets = 273
	STIFTagRowsPerStrip = 278
	STIFTagStripCounts  = 279
)

// STIF seed layout constants.
const (
	STIFIFDOffset = 4  // header field holding the IFD offset
	STIFIFD       = 8  // entry count position in the seed
	STIFEntries   = 10 // first 12-byte entry
	// Entry value fields (entry i value lives at STIFEntries + 12*i + 8).
	STIFWidthValue  = 18
	STIFHeightValue = 30
	STIFBitsValue   = 42
	STIFStripOffVal = 54
	STIFRowsValue   = 66
	STIFCountsValue = 78
	STIFNextIFD     = 82
	STIFAuxData     = 86  // palette/pad bytes
	STIFStripData   = 110 // strip bytes to EOF
	STIFSeedLength  = 174
)

// stifEntry writes one 12-byte IFD entry.
func stifEntry(data []byte, off int, tag, typ uint16, count, value uint32) {
	le16(data, off, tag)
	le16(data, off+2, typ)
	le32(data, off+4, count)
	le32(data, off+8, value)
}

// STIF returns the TIFThumb input format with its canonical seed.
func STIF() *Format {
	seed := make([]byte, STIFSeedLength)
	seed[0], seed[1] = 'I', 'I'
	le16(seed, 2, 42)
	le32(seed, STIFIFDOffset, STIFIFD)

	le16(seed, STIFIFD, 6) // entry count
	stifEntry(seed, STIFEntries+0*12, STIFTagWidth, 4, 1, 64)
	stifEntry(seed, STIFEntries+1*12, STIFTagHeight, 4, 1, 48)
	stifEntry(seed, STIFEntries+2*12, STIFTagBits, 3, 1, 8) // SHORT: low 2 bytes
	stifEntry(seed, STIFEntries+3*12, STIFTagStripOffsets, 4, 1, STIFStripData)
	stifEntry(seed, STIFEntries+4*12, STIFTagRowsPerStrip, 4, 1, 16)
	stifEntry(seed, STIFEntries+5*12, STIFTagStripCounts, 4, 1, 0) // fixed up
	le32(seed, STIFNextIFD, 0)

	for i := STIFAuxData; i < STIFStripData; i++ {
		seed[i] = byte(3 * i)
	}
	for i := STIFStripData; i < STIFSeedLength; i++ {
		seed[i] = byte(19 * i)
	}
	FixSTIFStripBytes(seed)

	fields := field.MustMap([]field.Spec{
		{Name: "/ifd/width", Offset: STIFWidthValue, Size: 4, Order: field.LittleEndian},
		{Name: "/ifd/height", Offset: STIFHeightValue, Size: 4, Order: field.LittleEndian},
		{Name: "/ifd/bits", Offset: STIFBitsValue, Size: 2, Order: field.LittleEndian},
		{Name: "/ifd/rows_per_strip", Offset: STIFRowsValue, Size: 4, Order: field.LittleEndian},
	})

	return &Format{
		Name:     "stif",
		Seed:     seed,
		Fields:   fields,
		Fixups:   []inputgen.Fixup{FixSTIFStripBytes},
		Validate: validateSTIF,
	}
}

// stifValueOffset resolves an entry value position through the IFD
// indirection: it reads the IFD offset from the header, walks the tagged
// entries, and returns the file offset of the named tag's value field (-1
// when the tag is absent or the directory is out of bounds).
func stifValueOffset(data []byte, tag uint16) int {
	if len(data) < STIFIFDOffset+4 {
		return -1
	}
	ifd := int(rdle32(data, STIFIFDOffset))
	if ifd < 0 || ifd+2 > len(data) {
		return -1
	}
	count := int(data[ifd]) | int(data[ifd+1])<<8
	for i := 0; i < count; i++ {
		entry := ifd + 2 + 12*i
		if entry+12 > len(data) {
			return -1
		}
		if uint16(data[entry])|uint16(data[entry+1])<<8 == tag {
			return entry + 8
		}
	}
	return -1
}

// FixSTIFStripBytes repairs the StripByteCounts entry so it covers exactly
// the bytes from the strip offset to EOF — the strip-bookkeeping analogue of
// the RIFF size fix-up, resolved through the IFD offset indirection.
func FixSTIFStripBytes(data []byte) {
	offVal := stifValueOffset(data, STIFTagStripOffsets)
	cntVal := stifValueOffset(data, STIFTagStripCounts)
	if offVal < 0 || cntVal < 0 || offVal+4 > len(data) || cntVal+4 > len(data) {
		return
	}
	strip := int(rdle32(data, offVal))
	if strip < 0 || strip > len(data) {
		return
	}
	le32(data, cntVal, uint32(len(data)-strip))
}

func validateSTIF(data []byte) error {
	if len(data) < STIFEntries || data[0] != 'I' || data[1] != 'I' || rdle32(data, 0)>>16 != 42 {
		return structErr("stif", "bad header magic")
	}
	for _, tag := range []uint16{STIFTagWidth, STIFTagHeight, STIFTagBits,
		STIFTagStripOffsets, STIFTagRowsPerStrip, STIFTagStripCounts} {
		if v := stifValueOffset(data, tag); v < 0 || v+4 > len(data) {
			return structErr("stif", "missing or truncated IFD entry for tag %d", tag)
		}
	}
	strip := int(rdle32(data, stifValueOffset(data, STIFTagStripOffsets)))
	count := int(rdle32(data, stifValueOffset(data, STIFTagStripCounts)))
	if strip < 0 || strip > len(data) {
		return structErr("stif", "strip offset %d outside file", strip)
	}
	if count != len(data)-strip {
		return structErr("stif", "strip byte count %d != %d", count, len(data)-strip)
	}
	return nil
}
