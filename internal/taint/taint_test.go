package taint

import (
	"slices"
	"testing"
	"testing/quick"
)

// has reports whether label i is in s, read straight from its bitset.
func has(s *Set, i int) bool {
	return s != nil && i >= 0 && i/64 < len(s.words) && s.words[i/64]&(1<<uint(i%64)) != 0
}

func TestEmptyAndSingle(t *testing.T) {
	var nilSet *Set
	if !nilSet.Empty() {
		t.Fatal("nil set must be empty")
	}
	s := Single(70)
	if s.Empty() || !has(s, 70) || has(s, 69) || len(s.Elems()) != 1 {
		t.Fatalf("Single(70) misbehaves: %v", s.Elems())
	}
	if has(nilSet, 0) || nilSet.Elems() != nil {
		t.Fatal("nil set accessors")
	}
}

func TestUnionBasics(t *testing.T) {
	a := Single(1).Union(Single(65))
	if !slices.Equal(a.Elems(), []int{1, 65}) {
		t.Fatalf("union = %v", a.Elems())
	}
	var nilSet *Set
	if got := nilSet.Union(a); got != a {
		t.Fatal("union with empty should reuse operand")
	}
	if got := a.Union(nil); got != a {
		t.Fatal("union with empty should reuse operand")
	}
	// Subset union reuses the superset.
	if got := a.Union(Single(1)); got != a {
		t.Fatalf("subset union = %v", got.Elems())
	}
}

func TestUnionImmutability(t *testing.T) {
	a := Single(3)
	b := Single(200)
	u := a.Union(b)
	if !slices.Equal(a.Elems(), []int{3}) || !slices.Equal(b.Elems(), []int{200}) {
		t.Fatal("operands mutated")
	}
	if !slices.Equal(u.Elems(), []int{3, 200}) {
		t.Fatal("union wrong")
	}
}

func TestEqual(t *testing.T) {
	a := Single(5).Union(Single(64))
	b := Single(64).Union(Single(5))
	if !slices.Equal(a.Elems(), b.Elems()) {
		t.Fatal("order-independent equality failed")
	}
	if slices.Equal(a.Elems(), Single(5).Elems()) {
		t.Fatal("different sets equal")
	}
}

// Property: union membership is the or of operand memberships.
func TestUnionProperty(t *testing.T) {
	f := func(xs, ys []uint8, probe uint8) bool {
		var a, b *Set
		for _, x := range xs {
			a = a.Union(Single(int(x)))
		}
		for _, y := range ys {
			b = b.Union(Single(int(y)))
		}
		u := a.Union(b)
		return has(u, int(probe)) == (has(a, int(probe)) || has(b, int(probe)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Elems is sorted, duplicate-free and consistent with the bitset.
func TestElemsProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		var s *Set
		added := map[int]bool{}
		for _, x := range xs {
			s = s.Union(Single(int(x % 1024)))
			added[int(x%1024)] = true
		}
		elems := s.Elems()
		for i, e := range elems {
			if !has(s, e) {
				return false
			}
			if i > 0 && elems[i-1] >= e {
				return false
			}
		}
		return len(added) == len(elems)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
