package absint

import (
	"testing"

	"diode/internal/lang"
)

// EachPoint calls visit for every point one pass recorded, in no particular
// order: the guarded pass when guarded is set, else the unguarded one.
func (a *Analysis) EachPoint(guarded bool, visit func(fn, path string, v Value)) {
	pts := a.unguarded
	if guarded {
		pts = a.guarded
	}
	for fn, fp := range pts {
		for path, i := range fp.at {
			visit(fn, path, fp.vals[i])
		}
	}
}

// WarmPassAllocs runs p's guarded fixpoint to convergence and returns the
// average number of allocations one more (non-recording) pass makes.
func WarmPassAllocs(p *lang.Program) (float64, error) {
	if err := p.Finalize(); err != nil {
		return 0, err
	}
	z := newInterpreter(p, true)
	if err := z.fixpoint(); err != nil {
		return 0, err
	}
	var err error
	n := testing.AllocsPerRun(5, func() {
		if e := z.pass(); e != nil {
			err = e
		}
	})
	return n, err
}
