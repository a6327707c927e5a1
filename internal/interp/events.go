package interp

import (
	"diode/internal/bv"
	"diode/internal/taint"
)

// OutcomeKind classifies how an execution ended.
type OutcomeKind int

// Execution outcomes.
const (
	OutOK        OutcomeKind = iota // main returned normally
	OutRejected                     // the program aborted (sanity check rejected the input)
	OutSegv                         // simulated SIGSEGV: access far outside any block
	OutAbrt                         // simulated SIGABRT: allocator detected heap corruption
	OutFuel                         // fuel budget exhausted (Options.Fuel)
	OutError                        // guest-program runtime error (authoring bug)
	OutCancelled                    // the run was cancelled via Options.Cancel
)

func (k OutcomeKind) String() string {
	switch k {
	case OutOK:
		return "ok"
	case OutRejected:
		return "rejected"
	case OutSegv:
		return "SIGSEGV"
	case OutAbrt:
		return "SIGABRT"
	case OutFuel:
		return "fuel-exhausted"
	case OutCancelled:
		return "cancelled"
	}
	return "runtime-error"
}

// MemErrorKind classifies memcheck findings.
type MemErrorKind int

// Memcheck error kinds.
const (
	InvalidRead MemErrorKind = iota
	InvalidWrite
)

func (k MemErrorKind) String() string {
	if k == InvalidRead {
		return "InvalidRead"
	}
	return "InvalidWrite"
}

// MemError is a memcheck finding: an access outside the bounds of the block
// it targets, attributed to the allocation site that created the block.
type MemError struct {
	Kind   MemErrorKind
	Site   string // allocation site of the accessed block
	Offset uint64 // accessed offset (≥ block size)
	Size   uint64 // block size at allocation time
}

// AllocEvent records one dynamic execution of an allocation site.
type AllocEvent struct {
	Site  string
	Seq   int        // order of this allocation in the run
	Size  uint64     // concrete size (possibly wrapped)
	Width uint8      // width of the size computation
	Sym   *bv.Term   // symbolic size expression (nil if not tracked/tainted)
	Taint *taint.Set // input-byte labels flowing into the size
	// Wrapped reports that some arithmetic step in the computation of the
	// size value wrapped around — the ground truth for "this input triggered
	// an integer overflow of the target expression at this site".
	Wrapped bool
	// BranchMark is the length of the branch trace at the moment of this
	// allocation; Branches[:BranchMark] is the path φ to this site.
	BranchMark int
}

// BranchRecord is one element of the branch condition sequence φ (§3.2): the
// symbolic constraint that holds exactly when execution takes the same
// direction this run took at the labelled conditional.
type BranchRecord struct {
	Label string
	Taken bool     // direction taken this run
	Cond  *bv.Bool // constraint for the taken direction (already negated if !Taken)
}

// Outcome is everything the engine observes from one instrumented run.
type Outcome struct {
	Kind     OutcomeKind
	AbortMsg string
	Err      error // for OutError
	Warnings []string
	Allocs   []AllocEvent
	MemErrs  []MemError
	Branches []BranchRecord // φ, recorded only in symbolic mode
	Steps    int64          // fuel units used (see Options.Fuel)
}

// ErrorsAt reports whether any memory error (or fatal signal attribution) in
// the outcome involves a block allocated at the given site.
func (o *Outcome) ErrorsAt(site string) bool {
	for _, e := range o.MemErrs {
		if e.Site == site {
			return true
		}
	}
	return false
}
