package sat

import (
	"math/bits"
	"runtime"
	"testing"
	"unsafe"
)

// raceEnabled reports a race-detector build (race_test.go).
var raceEnabled bool

// TestNewVarGrowth pins the growth policy of the per-variable storage:
// 100k NewVar calls take O(log n) allocations, and the bytes they allocate
// on the way stay within 3x the storage the variables end with. append's
// own growth (about 1.25x per step past 256 elements) took 244
// allocations and 5.3x the final storage.
func TestNewVarGrowth(t *testing.T) {
	if raceEnabled {
		// The race build does not fold slices.Grow's append of a made slice
		// into one growth, so every growth also allocates that slice.
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(Options{})
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	runtime.ReadMemStats(&after)
	size := func(l int, elem uintptr) uint64 { return uint64(l) * uint64(elem) }
	final := size(len(s.vals), unsafe.Sizeof(s.vals[0])) +
		size(len(s.level), unsafe.Sizeof(s.level[0])) +
		size(len(s.reason), unsafe.Sizeof(s.reason[0])) +
		size(len(s.phase), unsafe.Sizeof(s.phase[0])) +
		size(len(s.activity), unsafe.Sizeof(s.activity[0])) +
		size(len(s.seen), unsafe.Sizeof(s.seen[0])) +
		size(len(s.watches), unsafe.Sizeof(s.watches[0])) +
		size(len(s.order.heap), unsafe.Sizeof(s.order.heap[0])) +
		size(len(s.order.indices), unsafe.Sizeof(s.order.indices[0]))
	mallocs := after.Mallocs - before.Mallocs
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d vars: %d allocations, %d bytes allocated, %d bytes final (%.2fx)",
		n, mallocs, alloc, final, float64(alloc)/float64(final))
	// Nine slices, each reallocating about once per doubling, plus New.
	if limit := uint64(10 * bits.Len(n)); mallocs > limit {
		t.Errorf("%d NewVar calls made %d allocations, want at most %d", n, mallocs, limit)
	}
	if alloc > 3*final {
		t.Errorf("%d NewVar calls allocated %d bytes, over 3x their final %d", n, alloc, final)
	}
}
