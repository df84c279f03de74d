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
func (h refHeap) Less(i, j int) bool { return before(&h.eventHeap[i], &h.eventHeap[j]) }
func (h refHeap) Swap(i, j int)      { h.eventHeap[i], h.eventHeap[j] = h.eventHeap[j], h.eventHeap[i] }
func (h *refHeap) Push(x any)        { h.eventHeap = append(h.eventHeap, x.(event)) }
func (h *refHeap) Pop() any {
	old := h.eventHeap
	n := len(old)
	e := old[n-1]
	h.eventHeap = old[:n-1]
	return e
}

// heapPair drives the typed heap and the container/heap reference with
// the same operations and fails on the first backing-array difference.
type heapPair struct {
	t   *testing.T
	got eventHeap
	ref refHeap
	seq int64
	op  int
}

func (p *heapPair) push(time float64, kind eventKind) {
	p.t.Helper()
	p.seq++
	e := event{time: time, seq: p.seq, kind: kind}
	p.got.push(e)
	heap.Push(&p.ref, e)
	p.check()
}

func (p *heapPair) pop() {
	p.t.Helper()
	g, w := p.got.pop(), heap.Pop(&p.ref).(event)
	if g != w {
		p.t.Fatalf("op %d: pop %+v, container/heap popped %+v", p.op, g, w)
	}
	p.check()
}

func (p *heapPair) check() {
	p.t.Helper()
	if len(p.got) != len(p.ref.eventHeap) {
		p.t.Fatalf("op %d: len %d, container/heap %d", p.op, len(p.got), len(p.ref.eventHeap))
	}
	for i := range p.got {
		if p.got[i] != p.ref.eventHeap[i] {
			p.t.Fatalf("op %d: slot %d holds %+v, container/heap %+v", p.op, i, p.got[i], p.ref.eventHeap[i])
		}
	}
	p.op++
}

// TestEventHeapMatchesContainerHeap requires the typed heap's backing
// array to equal container/heap's after every push and pop of a random
// sequence, with times drawn from a few values so equal-time ties (broken
// by seq) are common.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	src := rng.New(5)
	p := &heapPair{t: t}
	for op := 0; op < 20000; op++ {
		if len(p.got) == 0 || src.Float64() < 0.55 {
			p.push(float64(src.Intn(8))*0.25, eventKind(src.Intn(3)))
		} else {
			p.pop()
		}
	}
}

// TestEventHeapInterleavedRuns alternates runs of pushes with runs of pops,
// some of which drain the heap, so the sifts cross every depth with
// equal-time ties: two distinct times, and stretches where every event has
// the same time and seq alone orders them.
func TestEventHeapInterleavedRuns(t *testing.T) {
	src := rng.New(11)
	p := &heapPair{t: t}
	for run := 0; run < 600; run++ {
		times := 2
		if run%5 == 0 {
			times = 1
		}
		for k := 1 + src.Intn(40); k > 0; k-- {
			p.push(float64(src.Intn(times)), eventKind(src.Intn(3)))
		}
		pops := 1 + src.Intn(40)
		if run%7 == 0 {
			pops = len(p.got)
		}
		for ; pops > 0 && len(p.got) > 0; pops-- {
			p.pop()
		}
	}
}
