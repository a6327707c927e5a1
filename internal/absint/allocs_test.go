package absint_test

import (
	"testing"

	"diode/internal/absint"
	"diode/internal/apps"
)

// maxSwfplayAllocs bounds the allocations of one Analyze of swfplay: 711
// were measured (Go 1.24; 32,059 before state storage was recycled and
// paths built only while recording), and the bound leaves about 55%
// headroom for other map implementations. Taking a fresh state for every
// If arm alone brings it to 4,005.
const maxSwfplayAllocs = 1100

// TestAnalyzeAllocs guards the allocation-light analysis: a fixpoint pass
// over warm state storage allocates nothing, and a whole Analyze stays
// near one key per recorded point.
func TestAnalyzeAllocs(t *testing.T) {
	a, err := apps.ByName("swfplay")
	if err != nil {
		t.Fatal(err)
	}
	n, err := absint.WarmPassAllocs(a.Program)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("a warm fixpoint pass over swfplay made %.0f allocations, want 0", n)
	}
	n = testing.AllocsPerRun(5, func() {
		if _, err := absint.Analyze(a.Program); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxSwfplayAllocs {
		t.Errorf("Analyze(swfplay) made %.0f allocations, want at most %d", n, maxSwfplayAllocs)
	}
}
