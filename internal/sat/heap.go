package sat

import "slices"

// varHeap is a binary max-heap of variables ordered by activity, with an
// index map for increase-key updates (MiniSat's order heap). Each entry
// carries its variable's activity, so sifting compares neighbouring
// entries instead of indexing the solver's activity array. The solver
// keeps every entry's key equal to its variable's activity: it pushes
// and raises keys with the current activity and rescales the keys with
// the activities, so every comparison, and every tie, comes out as it
// would against the array.
type varHeap struct {
	data []heapEntry
	pos  []int32 // pos[v] = index in data, or -1
}

type heapEntry struct {
	act float64
	v   Var
}

// grow makes room for n variables.
func (h *varHeap) grow(n int) {
	h.data = slices.Grow(h.data, max(0, n-len(h.data)))
	h.pos = slices.Grow(h.pos, max(0, n-len(h.pos)))
}

func (h *varHeap) ensure(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

// push inserts v with key act unless it is already in the heap.
func (h *varHeap) push(v Var, act float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, heapEntry{act, v})
	h.siftUp(len(h.data)-1, heapEntry{act, v})
}

func (h *varHeap) popMax() (Var, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	top := h.data[0].v
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.siftDown(0, last)
	}
	return top, true
}

// clear removes every variable.
func (h *varHeap) clear() {
	for _, e := range h.data {
		h.pos[e.v] = -1
	}
	h.data = h.data[:0]
}

// increase raises v's key to act, if v is in the heap. A raised key
// never sifts down: every child's key is at most the old one.
func (h *varHeap) increase(v Var, act float64) {
	if int(v) >= len(h.pos) || h.pos[v] < 0 {
		return
	}
	h.siftUp(int(h.pos[v]), heapEntry{act, v})
}

// rescale multiplies every key by f, as the solver does its activities.
func (h *varHeap) rescale(f float64) {
	for i := range h.data {
		h.data[i].act *= f
	}
}

// siftUp places e at slot i or above it.
func (h *varHeap) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.data[parent].act >= e.act {
			break
		}
		h.data[i] = h.data[parent]
		h.pos[h.data[i].v] = int32(i)
		i = parent
	}
	h.data[i] = e
	h.pos[e.v] = int32(i)
}

// siftDown places e at slot i or below it.
func (h *varHeap) siftDown(i int, e heapEntry) {
	n := len(h.data)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h.data[child+1].act > h.data[child].act {
			child++
		}
		if h.data[child].act <= e.act {
			break
		}
		h.data[i] = h.data[child]
		h.pos[h.data[i].v] = int32(i)
		i = child
	}
	h.data[i] = e
	h.pos[e.v] = int32(i)
}
