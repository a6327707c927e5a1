// Package taint implements the per-input-byte label sets used by DIODE's
// stage-1 fine-grained dynamic taint analysis (§4.1). Every byte read from
// the taint source gets a unique label (its offset); labels propagate through
// arithmetic, data-movement and logic operations as set unions. A memory
// allocation site whose size carries a non-empty label set is a target site,
// and the labels are exactly the "relevant input bytes".
//
// Sets are immutable: operations return new sets, so values can be shared
// freely between interpreter cells.
package taint

import "math/bits"

// Set is an immutable set of input byte offsets, represented as a bitset.
// The zero value (nil) is the empty set.
type Set struct {
	words []uint64
}

// Empty reports whether the set has no labels.
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Single returns the set containing only label i.
func Single(i int) *Set {
	if i < 0 {
		panic("taint: negative label")
	}
	words := make([]uint64, i/64+1)
	words[i/64] = 1 << uint(i%64)
	return &Set{words: words}
}

// Union returns the union of s and t, reusing an operand when possible.
func (s *Set) Union(t *Set) *Set {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	a, b := s.words, t.words
	if len(b) > len(a) {
		a, b = b, a
	}
	// Fast path: b ⊆ a.
	subset := true
	for i, w := range b {
		if w&^a[i] != 0 {
			subset = false
			break
		}
	}
	if subset {
		if len(a) == len(s.words) && &a[0] == &s.words[0] {
			return s
		}
		return t
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i, w := range b {
		out[i] |= w
	}
	return &Set{words: out}
}

// Elems returns the labels in ascending order.
func (s *Set) Elems() []int {
	if s == nil {
		return nil
	}
	var out []int
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}
