package server

import (
	"context"
	"sync"
)

// Request coalescing (singleflight): N concurrent requests with the
// same canonical hash cost one engine execution. The first arrival
// becomes the flight's leader and runs the work; later arrivals block
// on the flight and share the leader's bytes. Determinism is what makes
// sharing sound — every waiter would have produced exactly these bytes.

// flight is one in-progress execution and its eventual outcome.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// flightShards is the number of independently locked flight maps a
// flightGroup stripes keys over (power of two). Flights for distinct
// hashes then register and finish without contending on one mutex; the
// canonical hash's low bits pick the shard, mirroring cacheShards.
const flightShards = 16

// flightShard is one lock-plus-map stripe of a flightGroup: at most one
// in-progress flight per key. The pad keeps adjacent shards' mutexes on
// distinct cache lines.
type flightShard struct {
	mu sync.Mutex
	m  map[uint64]*flight
	_  [40]byte // pad: no false sharing with the next shard's mutex
}

// flightGroup deduplicates concurrent executions by key: sharded
// flight bookkeeping plus goroutine blocking for the waiters.
type flightGroup struct {
	shards [flightShards]flightShard
}

// newFlightGroup returns an empty group.
func newFlightGroup() *flightGroup {
	g := &flightGroup{}
	for i := range g.shards {
		g.shards[i].m = map[uint64]*flight{}
	}
	return g
}

// do returns fn's outcome for key, executing fn at most once across all
// concurrent callers with that key. The boolean reports whether this
// caller led the flight (ran fn) or joined an existing one. A joining
// caller stops waiting when its own ctx ends — the flight itself keeps
// running for the remaining waiters, so one impatient client cannot
// cancel work others still want.
func (g *flightGroup) do(ctx context.Context, key uint64, fn func() ([]byte, error)) (body []byte, leader bool, err error) {
	sh := &g.shards[key&(flightShards-1)]
	sh.mu.Lock()
	f, joined := sh.m[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		sh.m[key] = f
	}
	sh.mu.Unlock()
	if joined {
		select {
		case <-f.done:
			return f.body, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}

	f.body, f.err = fn()

	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	close(f.done)
	return f.body, true, f.err
}

// inFlight returns the number of distinct executions currently running,
// summed across shards.
func (g *flightGroup) inFlight() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
