// Package trace implements the branch-condition sequence φ of the paper's
// §3.2 and the two transformations the enforcement algorithm applies to it:
//
//   - compress(φ) (Figure 8): coalesce the multiple occurrences of a
//     conditional branch (loop heads execute many times) into a single entry
//     whose constraint is the conjunction of every observed occurrence, at
//     the position of the first occurrence.
//   - relevant(φ, β) (§3.3): drop entries whose condition shares no input
//     variable with the target constraint β.
package trace

import (
	"diode/internal/bv"
	"diode/internal/interp"
)

// Entry is one element ⟨ℓ, B⟩ of φ: the constraint that holds exactly when
// an input takes the same direction(s) the observed run took at label ℓ.
type Entry struct {
	Label string
	Cond  *bv.Bool
	// Count is the number of dynamic occurrences coalesced into this entry
	// (1 before compression).
	Count int
}

// Path is a branch condition sequence in program execution order.
type Path []Entry

// FromBranches converts interpreter branch records into a Path.
func FromBranches(recs []interp.BranchRecord) Path {
	p := make(Path, len(recs))
	for i, r := range recs {
		p[i] = Entry{Label: r.Label, Cond: r.Cond, Count: 1}
	}
	return p
}

// Compress implements Figure 8: for each label, all occurrences are folded
// (by conjunction) into the first occurrence, preserving first-occurrence
// order. The input path is not modified.
func Compress(p Path) Path {
	var out Path
	index := make(map[string]int)
	for _, e := range p {
		if i, ok := index[e.Label]; ok {
			out[i].Cond = bv.AndB(out[i].Cond, e.Cond)
			out[i].Count += e.Count
			continue
		}
		index[e.Label] = len(out)
		out = append(out, Entry{Label: e.Label, Cond: e.Cond, Count: e.Count})
	}
	return out
}

// Relevant filters p down to the entries whose condition shares at least one
// input variable with the target constraint β.
func Relevant(p Path, beta *bv.Bool) Path {
	betaVars := bv.BoolVars(beta)
	var out Path
	for _, e := range p {
		if bv.BoolVars(e.Cond).Intersects(betaVars) {
			out = append(out, e)
		}
	}
	return out
}

// Conds returns the conjunction of all entries' constraints (the "same path
// as the seed input" constraint used in the §5.4 blocking-check experiment).
func (p Path) Conds() *bv.Bool {
	out := bv.True()
	for _, e := range p {
		out = bv.AndB(out, e.Cond)
	}
	return out
}
