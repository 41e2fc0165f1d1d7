package cluster

import (
	"container/heap"
	"testing"

	"repro/internal/stats"
)

// refEvent and refHeap are the container/heap reference the typed event
// queue is held to: the (time, kind, seq) order written out as three
// comparisons over unpacked fields.
type refEvent struct {
	time      float64
	kind, seq uint64
	arg       int32
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEventQueueMatchesContainerHeap drives the typed queue and the
// container/heap reference through the same random push/pop sequences,
// with times drawn from eight values so most comparisons tie on time and
// fall through to kind and sequence: every pop must return the same
// event from both. 300 seeded trials.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		r := stats.DeriveRand(int64(trial), stats.HashLabel("event-queue"))
		var q eventQueue
		var ref refHeap
		var seq uint64
		check := func(op int) {
			got, want := q.pop(), heap.Pop(&ref).(refEvent)
			if got.time != want.time || got.kind() != want.kind || got.ord&^(1<<63) != want.seq || got.arg != want.arg {
				t.Fatalf("trial %d op %d: popped (t=%g kind=%d seq=%d arg=%d), reference (t=%g kind=%d seq=%d arg=%d)",
					trial, op, got.time, got.kind(), got.ord&^(1<<63), got.arg, want.time, want.kind, want.seq, want.arg)
			}
		}
		ops := 200 + r.Intn(2000)
		for op := 0; op < ops; op++ {
			if len(q) > 0 && r.Intn(3) == 0 {
				check(op)
				continue
			}
			ev := refEvent{time: 0.25 * float64(r.Intn(8)), kind: uint64(r.Intn(2)), seq: seq, arg: int32(r.Intn(1 << 20))}
			seq++
			q.push(newEvent(ev.time, ev.kind, ev.seq, ev.arg))
			heap.Push(&ref, ev)
		}
		for op := ops; len(q) > 0; op++ {
			check(op)
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference holds %d events after the queue emptied", trial, ref.Len())
		}
	}
}
