package sat

// varHeap is a binary max-heap of variables ordered by activity, with an
// index map for decrease/increase-key updates (MiniSat's order heap).
type varHeap struct {
	data []Var
	pos  []int32 // pos[v] = index in data, or -1
}

func (h *varHeap) ensure(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *varHeap) push(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = int32(len(h.data) - 1)
	h.siftUp(int(h.pos[v]), act)
}

func (h *varHeap) pushIfAbsent(v Var, act []float64) { h.push(v, act) }

func (h *varHeap) popMax(act []float64) (Var, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.siftDown(0, act)
	}
	return top, true
}

// clear removes every variable.
func (h *varHeap) clear() {
	for _, v := range h.data {
		h.pos[v] = -1
	}
	h.data = h.data[:0]
}

func (h *varHeap) update(v Var, act []float64) {
	if !h.inHeap(v) {
		return
	}
	i := int(h.pos[v])
	h.siftUp(i, act)
	h.siftDown(int(h.pos[v]), act)
}

func (h *varHeap) siftUp(i int, act []float64) {
	v := h.data[i]
	for i > 0 {
		parent := (i - 1) / 2
		if act[h.data[parent]] >= act[v] {
			break
		}
		h.data[i] = h.data[parent]
		h.pos[h.data[i]] = int32(i)
		i = parent
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) siftDown(i int, act []float64) {
	v := h.data[i]
	n := len(h.data)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && act[h.data[child+1]] > act[h.data[child]] {
			child++
		}
		if act[h.data[child]] <= act[v] {
			break
		}
		h.data[i] = h.data[child]
		h.pos[h.data[i]] = int32(i)
		i = child
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}
