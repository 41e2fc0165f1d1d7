package cluster

// Event kinds inside the simulation queue. Completions sort before
// arrivals at equal times, so a freed replica is visible to the router
// at the same instant.
const (
	evCompletion uint64 = iota // a replica finishes an engine run
	evArrival                  // a closed-loop client issues its next request
)

// simEvent is one queue entry: 24 bytes and no pointers, so the queue
// is one flat slice the garbage collector never scans.
type simEvent struct {
	time float64
	// ord is the event kind in the top bit above the push sequence
	// number, so one comparison orders equal times by kind, then in
	// insertion order.
	ord uint64
	// arg is the replica id of a completion, or the trace index of an
	// arrival.
	arg int32
}

// newEvent packs an event's ordering fields.
func newEvent(time float64, kind, seq uint64, arg int32) simEvent {
	return simEvent{time: time, ord: kind<<63 | seq, arg: arg}
}

// kind returns evCompletion or evArrival.
func (ev simEvent) kind() uint64 { return ev.ord >> 63 }

// before is the queue order: (time, kind, seq). seq is unique per cell,
// so the order is total and every correct heap pops the same sequence.
func (ev simEvent) before(o simEvent) bool {
	if ev.time != o.time {
		return ev.time < o.time
	}
	return ev.ord < o.ord
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []simEvent

// push inserts ev, moving the hole up from the new leaf.
func (q *eventQueue) push(ev simEvent) {
	h := append(*q, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must be
// non-empty. The last leaf refills the root's hole on its way down.
func (q *eventQueue) pop() simEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
}
