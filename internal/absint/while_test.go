package absint

import (
	"testing"

	"diode/internal/lang"
)

// TestLoopDivergenceNamesLoop pins that a While which does not converge is
// reported by its function and node path, though fixpoint passes build no
// paths: the error must name the inner loop nested in an outer loop's If.
func TestLoopDivergenceNamesLoop(t *testing.T) {
	defer func(n int) { maxLoopIters = n }(maxLoopIters)
	maxLoopIters = 0
	p := lang.NewProgram("diverge")
	p.AddFunc(lang.Fn("main", nil,
		lang.Let("x", lang.U32(0)),
		lang.Let("y", lang.U32(0)),
		lang.Loop("", lang.Ult(lang.V("y"), lang.U32(2)),
			lang.IfThen("", lang.Ult(lang.Len(), lang.U32(4)),
				lang.Loop("", lang.Ult(lang.V("x"), lang.U32(10)),
					lang.Let("x", lang.Add(lang.V("x"), lang.U32(1))))),
			lang.Let("y", lang.Add(lang.V("y"), lang.U32(1)))),
	))
	_, err := Analyze(p)
	const want = "absint: loop main.s2.body.s0.then.s0 did not converge"
	if err == nil || err.Error() != want {
		t.Fatalf("Analyze error %v, want %q", err, want)
	}
}
