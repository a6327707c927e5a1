// Package field is the repo's Hachoir substitute (§4.2, §4.4): it maps byte
// ranges of an input file to named input fields (e.g. bytes 16–19 of an SPNG
// file are "/header/width", big-endian), and names each input byte by a term
// over its field's variable, which is what a symbolic run reads the byte as.
//
// Byte i of a field reads as the extract of the corresponding byte of the
// field's variable (Map.InputTerms); a byte no field covers reads as its own
// 8-bit variable in[i]. For a big-endian 32-bit field the program's
// reassembly of the bytes then records exactly the byte-swizzle structure
// (BvAnd/UShr/Shl over HachField(32,...)) shown in the paper's §2 example
// target expression. Solving then assigns whole fields, and package inputgen
// writes field values back into the file.
package field

import (
	"fmt"
	"sort"

	"diode/internal/bv"
)

// Endian is a field's byte order.
type Endian uint8

// Byte orders.
const (
	BigEndian Endian = iota
	LittleEndian
)

// Spec describes one input field.
type Spec struct {
	// Name is the field path, e.g. "/header/width". Field variables render
	// as HachField(width, name).
	Name string
	// Offset is the byte offset of the field in the input file.
	Offset int
	// Size is the field length in bytes (1, 2, 4 or 8).
	Size int
	// Order is the field's byte order.
	Order Endian
}

// Width returns the field's bit width, or 0 for a Spec whose Size is not one
// of the supported values (1, 2, 4 or 8). NewMap rejects such specs, but a
// Spec can also be constructed directly; without the guard a size-0 or
// size-32 spec would silently yield width 0 via uint8 overflow while sizes
// like 33 would yield garbage widths.
func (s Spec) Width() uint8 {
	switch s.Size {
	case 1, 2, 4, 8:
		return uint8(s.Size * 8)
	}
	return 0
}

// Map is an ordered collection of field specs for one input format.
type Map struct {
	specs  []Spec
	byByte map[int]int // byte offset → index into specs
}

// NewMap builds a Map, validating that fields do not overlap.
func NewMap(specs []Spec) (*Map, error) {
	m := &Map{specs: append([]Spec(nil), specs...), byByte: make(map[int]int)}
	sort.Slice(m.specs, func(i, j int) bool { return m.specs[i].Offset < m.specs[j].Offset })
	for i, s := range m.specs {
		if s.Size != 1 && s.Size != 2 && s.Size != 4 && s.Size != 8 {
			return nil, fmt.Errorf("field: %s has unsupported size %d", s.Name, s.Size)
		}
		for b := s.Offset; b < s.Offset+s.Size; b++ {
			if j, taken := m.byByte[b]; taken {
				return nil, fmt.Errorf("field: %s overlaps %s at byte %d", s.Name, m.specs[j].Name, b)
			}
			m.byByte[b] = i
		}
	}
	return m, nil
}

// MustMap is NewMap that panics on error; for statically-known format tables.
func MustMap(specs []Spec) *Map {
	m, err := NewMap(specs)
	if err != nil {
		panic(err)
	}
	return m
}

// Specs returns the field specs in offset order.
func (m *Map) Specs() []Spec { return m.specs }

// Var returns the bv variable for a field.
func (s Spec) Var() *bv.Term { return bv.Var(s.Width(), s.Name) }

// byteExtract returns the 8-bit extract of the field variable corresponding
// to file byte offset off (which must be covered by the field).
func (s Spec) byteExtract(off int) *bv.Term {
	idx := off - s.Offset // 0 = first byte in the file
	var lo uint8
	if s.Order == BigEndian {
		lo = uint8((s.Size - 1 - idx) * 8)
	} else {
		lo = uint8(idx * 8)
	}
	return bv.Extract(lo+7, lo, s.Var())
}

// InputVarName returns the canonical name of the variable an input byte no
// field covers reads as (InputTerms), in[off].
func InputVarName(off int) string { return fmt.Sprintf("in[%d]", off) }

// ParseInputVar parses a canonical per-byte variable name produced by
// InputVarName and returns the byte offset. Only exact matches are accepted:
// the name must be "in[<digits>]" with no leading zeros, signs or trailing
// characters. (fmt.Sscanf-style parsing would accept "in[3]x" as byte 3.)
func ParseInputVar(name string) (int, bool) {
	const prefix = "in["
	if len(name) < len(prefix)+2 || name[:len(prefix)] != prefix || name[len(name)-1] != ']' {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-1]
	if len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	off := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		// Bound before accumulating so the multiply cannot overflow even
		// where int is 32 bits (off stays well below MaxInt32/10).
		if off > (1<<30)/10 {
			return 0, false
		}
		off = off*10 + int(c-'0')
	}
	if off > 1<<30 {
		return 0, false
	}
	return off, true
}

// InputTerms returns the table a symbolic run reads input bytes through
// (interp.Options.Symbolic): entry off holds, for each listed offset, the
// 8-bit extract of the covering field's variable, or the raw byte variable
// InputVarName(off) for a byte no field covers (raw-byte mode, §4.4).
// Entries for unlisted offsets are nil, so those bytes stay concrete. The
// table has length max(offsets)+1.
func (m *Map) InputTerms(offsets []int) []*bv.Term {
	n := 0
	for _, off := range offsets {
		n = max(n, off+1)
	}
	terms := make([]*bv.Term, n)
	for _, off := range offsets {
		if i, ok := m.byByte[off]; ok {
			terms[off] = m.specs[i].byteExtract(off)
		} else {
			terms[off] = bv.Var(8, InputVarName(off))
		}
	}
	return terms
}

// SeedAssignment reads the concrete value of every field (and of the raw
// bytes not covered by fields) from a seed input file. The result binds every
// variable an InputTerms entry can mention, so recorded expressions can be
// evaluated against the seed.
func (m *Map) SeedAssignment(input []byte) bv.Assignment {
	asn := make(bv.Assignment)
	for _, s := range m.specs {
		if s.Offset+s.Size <= len(input) {
			asn[s.Name] = s.Read(input)
		}
	}
	for i := range input {
		if _, covered := m.byByte[i]; !covered {
			asn[InputVarName(i)] = uint64(input[i])
		}
	}
	return asn
}

// Read extracts the field's concrete value from the file bytes.
func (s Spec) Read(input []byte) uint64 {
	var v uint64
	for i := 0; i < s.Size; i++ {
		b := uint64(input[s.Offset+i])
		if s.Order == BigEndian {
			v = v<<8 | b
		} else {
			v |= b << uint(8*i)
		}
	}
	return v
}

// Write stores a field value into the file bytes.
func (s Spec) Write(input []byte, v uint64) {
	for i := 0; i < s.Size; i++ {
		var b byte
		if s.Order == BigEndian {
			b = byte(v >> uint(8*(s.Size-1-i)))
		} else {
			b = byte(v >> uint(8*i))
		}
		input[s.Offset+i] = b
	}
}
