package cache

import (
	"container/list"
	"sync"
)

// LRU is a string-keyed, capacity-bounded memo table with singleflight
// semantics: concurrent Do calls for the same key share one computation
// instead of duplicating it. Values are opaque; callers embed their own error
// outcomes in the value and decline retention (keep=false) for results that
// must not poison the cache — a cancelled computation, an error result.
type LRU struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; elements hold *entry
	entries  map[string]*entry
}

// entry is one key's state. While the computation is in flight, elem is nil
// and done is open; waiters block on done and read val after it closes (the
// close is the publication point). A retained entry joins the order list.
type entry struct {
	key  string
	elem *list.Element
	done chan struct{}
	val  any
}

// NewLRU returns an empty table retaining at most capacity completed entries
// (minimum one). In-flight computations do not count against capacity.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{capacity: capacity, order: list.New(), entries: make(map[string]*entry)}
}

// Do returns the value for key, computing it with fn on first use. hit
// reports whether this call avoided running fn — a retained entry, or an
// in-flight computation it waited on (singleflight; such a caller observes
// the flight's value even when the flight declines retention, so callers
// embedding errors must inspect the value, not hit). fn's second return
// decides retention: false hands the value to this flight's waiters but
// forgets it immediately, so the next Do recomputes.
func (l *LRU) Do(key string, fn func() (any, bool)) (val any, hit bool) {
	l.mu.Lock()
	if e, ok := l.entries[key]; ok {
		if e.elem != nil {
			l.order.MoveToFront(e.elem)
			v := e.val
			l.mu.Unlock()
			return v, true
		}
		l.mu.Unlock()
		<-e.done
		return e.val, true
	}
	e := &entry{key: key, done: make(chan struct{})}
	l.entries[key] = e
	l.mu.Unlock()

	v, keep := fn()
	e.val = v
	l.mu.Lock()
	if keep {
		e.elem = l.order.PushFront(e)
		for l.order.Len() > l.capacity {
			oldest := l.order.Back()
			l.order.Remove(oldest)
			delete(l.entries, oldest.Value.(*entry).key)
		}
	} else {
		delete(l.entries, key)
	}
	l.mu.Unlock()
	close(e.done)
	return v, false
}
