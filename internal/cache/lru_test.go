package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func compute(v any) func() (any, bool) { return func() (any, bool) { return v, true } }
func mustNotRun(t *testing.T) func() (any, bool) {
	return func() (any, bool) { t.Error("fn ran on a retained entry"); return nil, false }
}

func TestLRUHitMiss(t *testing.T) {
	l := NewLRU(4)
	v, hit := l.Do("k", compute(7))
	if hit || v.(int) != 7 {
		t.Fatalf("first Do: v=%v hit=%v, want 7/false", v, hit)
	}
	v, hit = l.Do("k", mustNotRun(t))
	if !hit || v.(int) != 7 {
		t.Fatalf("second Do: v=%v hit=%v, want 7/true", v, hit)
	}
	if l.Len() != 1 {
		t.Fatalf("Len=%d, want 1", l.Len())
	}
}

// TestLRUEvictionOrder checks least-recently-used eviction with hits
// refreshing recency: at capacity 2, touching "a" before inserting "c" must
// evict "b", not "a".
func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU(2)
	l.Do("a", compute(1))
	l.Do("b", compute(2))
	if _, hit := l.Do("a", mustNotRun(t)); !hit {
		t.Fatal("a evicted prematurely")
	}
	l.Do("c", compute(3))
	if l.Len() != 2 {
		t.Fatalf("Len=%d, want 2", l.Len())
	}
	if _, hit := l.Do("b", compute(-2)); hit {
		t.Error("b survived eviction; want it to be the LRU victim")
	}
	// "b" was just recomputed and retained, evicting "a" (LRU after c,a).
	if _, hit := l.Do("c", mustNotRun(t)); !hit {
		t.Error("c evicted; want it retained")
	}
}

// TestLRUNoKeep checks that a keep=false value is handed back but never
// retained: the next Do recomputes.
func TestLRUNoKeep(t *testing.T) {
	l := NewLRU(4)
	runs := 0
	fn := func() (any, bool) { runs++; return "transient", false }
	for i := 0; i < 3; i++ {
		v, hit := l.Do("k", fn)
		if hit || v.(string) != "transient" {
			t.Fatalf("call %d: v=%v hit=%v", i, v, hit)
		}
	}
	if runs != 3 || l.Len() != 0 {
		t.Fatalf("runs=%d Len=%d, want 3 runs and nothing retained", runs, l.Len())
	}
}

// TestLRUSingleflight checks the dedup contract: concurrent Do calls for one
// key share a single computation, exactly one caller reports hit=false, and
// every caller observes the computed value.
func TestLRUSingleflight(t *testing.T) {
	l := NewLRU(4)
	var runs, misses atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit := l.Do("k", func() (any, bool) {
				runs.Add(1)
				time.Sleep(30 * time.Millisecond)
				return 42, true
			})
			if !hit {
				misses.Add(1)
			}
			if v.(int) != 42 {
				t.Errorf("v=%v, want 42", v)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", runs.Load())
	}
	if misses.Load() != 1 {
		t.Errorf("%d callers reported hit=false, want exactly the executing one", misses.Load())
	}
}

// TestLRUNoKeepWaiters checks that waiters on a keep=false flight still get
// the flight's value (hit=true) even though the entry is forgotten.
func TestLRUNoKeepWaiters(t *testing.T) {
	l := NewLRU(4)
	entered := make(chan struct{})
	release := make(chan struct{})
	go l.Do("k", func() (any, bool) {
		close(entered)
		<-release
		return "flight", false
	})
	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit := l.Do("k", func() (any, bool) {
			// Raced past the flight's completion — equally valid; the
			// contract under test is only that we never hang or get nil.
			return "flight", false
		})
		if v.(string) != "flight" {
			t.Errorf("waiter saw v=%v hit=%v", v, hit)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done
	if l.Len() != 0 {
		t.Errorf("Len=%d after keep=false flight, want 0", l.Len())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	l := NewLRU(0) // clamped to 1
	l.Do("a", compute(1))
	if l.Len() != 1 {
		t.Fatalf("Len=%d, want 1", l.Len())
	}
}
