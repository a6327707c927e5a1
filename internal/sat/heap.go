package sat

// varHeap is a max-heap of variables ordered by VSIDS activity, with an
// index table for decrease/increase-key.
type varHeap struct {
	heap     []Var
	indices  []int32 // position of each var in heap, -1 if absent
	activity *[]float64
}

// reset empties the heap, keeping its storage, and orders it by activity.
func (h *varHeap) reset(activity *[]float64) {
	h.heap, h.indices, h.activity = h.heap[:0], h.indices[:0], activity
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) grow(n int) {
	h.indices = reserve(h.indices, n-len(h.indices))
	for len(h.indices) < n {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) insert(v Var) {
	if int(v) >= len(h.indices) {
		h.grow(int(v) + 1)
	} else if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(reserve(h.heap, 1), v)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) removeMax() Var {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return top
}

// update repositions v after its activity changed (if present).
func (h *varHeap) update(v Var) {
	if !h.contains(v) {
		return
	}
	h.up(int(h.indices[v]))
	h.down(int(h.indices[v]))
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		left := 2*i + 1
		if left >= len(h.heap) {
			break
		}
		child := left
		if right := left + 1; right < len(h.heap) && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}
