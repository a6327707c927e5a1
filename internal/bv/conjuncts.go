package bv

// Conjuncts flattens nested conjunctions into the list of leaf conjuncts in
// left-to-right order: Conjuncts(a ∧ (b ∧ c)) = [a, b, c]. Non-conjunction
// formulas yield themselves, and the constant true yields nothing — so a
// formula grown with AndB decomposes into exactly the constraints that were
// conjoined, which is what lets an incremental solving session assert only
// the newly added conjunct of a monotonically growing conjunction.
func Conjuncts(b *Bool) []*Bool {
	if b.Kind == BConst && b.BVal {
		return nil
	}
	var out []*Bool
	var walk func(*Bool)
	walk = func(f *Bool) {
		if f.Kind == BAnd {
			walk(f.A)
			walk(f.B)
			return
		}
		out = append(out, f)
	}
	walk(b)
	return out
}
