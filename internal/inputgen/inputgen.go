// Package inputgen is the repo's Peach substitute (§4.4): given a seed input
// file, a field map and solver-produced field values, it reconstructs a new
// input file that carries the candidate values while remaining structurally
// valid — re-running the format's fix-up passes (checksum recalculation,
// length-field repair) that real formats require before a parser will even
// look at the interesting fields.
//
// It also supports the paper's raw-byte mode: variables named in[i] patch
// byte i directly, for formats without a field dictionary.
package inputgen

import (
	"fmt"
	"sort"

	"diode/internal/bv"
	"diode/internal/field"
)

// Fixup is a post-patch reconstruction pass, e.g. "recompute the CRC-32 of
// every chunk" or "repair the RIFF size header". Fixups run in order after
// field values are written.
type Fixup func(data []byte)

// Generator reconstructs input files for one format.
type Generator struct {
	fields *field.Map
	fixups []Fixup
}

// New returns a Generator over the given field map and fix-up passes.
func New(fields *field.Map, fixups ...Fixup) *Generator {
	return &Generator{fields: fields, fixups: fixups}
}

// Generate builds a new input: the seed's bytes with every assignment-bound
// field (and raw byte) replaced, then fixed up. The seed is not modified.
func (g *Generator) Generate(seed []byte, asn bv.Assignment) ([]byte, error) {
	out := append([]byte(nil), seed...)
	for _, spec := range g.fields.Specs() {
		v, ok := asn[spec.Name]
		if !ok {
			continue // unconstrained fields keep their seed values
		}
		if spec.Offset+spec.Size > len(out) {
			return nil, fmt.Errorf("inputgen: field %s extends past input (%d+%d > %d)",
				spec.Name, spec.Offset, spec.Size, len(out))
		}
		spec.Write(out, v)
	}
	// Raw-byte mode for variables not lifted to fields. Names must be exact
	// canonical in[i] forms (ParseInputVar), and patches are applied in sorted
	// name order so the result never depends on map iteration order.
	var raw []string
	for name := range asn {
		if _, ok := field.ParseInputVar(name); ok {
			raw = append(raw, name)
		}
	}
	sort.Strings(raw)
	for _, name := range raw {
		off, _ := field.ParseInputVar(name)
		if off >= len(out) {
			return nil, fmt.Errorf("inputgen: raw byte %d outside input", off)
		}
		out[off] = byte(asn[name])
	}
	for _, f := range g.fixups {
		f(out)
	}
	return out, nil
}
