package sim

// minHeap is a binary min-heap in a slice, ordered by the less function
// each call is handed: the fault adversary's event queue (fault.go) and
// the timing wheel's far-future ticks (wheel.go). Not container/heap,
// whose interface boxes every element it moves.
type minHeap[T any] []T

func (h *minHeap[T]) push(x T, less func(a, b T) bool) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *minHeap[T]) pop(less func(a, b T) bool) T {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < last && less(s[l], s[small]) {
			small = l
		}
		if r < last && less(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}
