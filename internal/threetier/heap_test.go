package threetier

import (
	"container/heap"
	"testing"

	"nnwc/internal/rng"
)

// refHeap drives the same event slice through container/heap, the
// reference the typed eventHeap must match operation for operation.
type refHeap struct{ eventHeap }

func (h refHeap) Len() int           { return len(h.eventHeap) }
func (h refHeap) Less(i, j int) bool { return h.less(i, j) }
func (h refHeap) Swap(i, j int)      { h.eventHeap[i], h.eventHeap[j] = h.eventHeap[j], h.eventHeap[i] }
func (h *refHeap) Push(x any)        { h.eventHeap = append(h.eventHeap, x.(event)) }
func (h *refHeap) Pop() any {
	old := h.eventHeap
	n := len(old)
	e := old[n-1]
	h.eventHeap = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap requires the typed heap's backing
// array to equal container/heap's after every push and pop of a random
// sequence, with times drawn from a few values so equal-time ties (broken
// by seq) are common.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	src := rng.New(5)
	var got eventHeap
	var ref refHeap
	var seq int64
	for op := 0; op < 20000; op++ {
		if len(got) == 0 || src.Float64() < 0.55 {
			seq++
			e := event{time: float64(src.Intn(8)) * 0.25, seq: seq, kind: eventKind(src.Intn(3))}
			got.push(e)
			heap.Push(&ref, e)
		} else {
			g, w := got.pop(), heap.Pop(&ref).(event)
			if g != w {
				t.Fatalf("op %d: pop %+v, container/heap popped %+v", op, g, w)
			}
		}
		if len(got) != len(ref.eventHeap) {
			t.Fatalf("op %d: len %d, container/heap %d", op, len(got), len(ref.eventHeap))
		}
		for i := range got {
			if got[i] != ref.eventHeap[i] {
				t.Fatalf("op %d: slot %d holds %+v, container/heap %+v", op, i, got[i], ref.eventHeap[i])
			}
		}
	}
}
