package server

import (
	"context"
	"sync"

	"repro/internal/rescache"
)

// The store is the server's result cache and flight table in one. A
// body is a pure function of its canonical key (the model is closed
// form, the engine deterministic), so computing it once per key is
// exact: a cache hit serves the bytes a fresh computation would
// produce, and N concurrent requests with one key cost one computation
// — the first arrival leads the key's flight, later ones wait on it and
// share its bytes.
//
// A request takes its key's stripe lock at most twice. lookup, in one
// critical section, returns the cached body or joins or opens the
// key's flight; finish, in the leader's second, caches the body and
// retires the flight. No request can fall between the two — miss the
// cache before the leader's put, then miss the flight after its
// retirement — so a key is computed exactly once until its entry is
// evicted.

// stripes is the number of independently locked stripes the store
// spreads keys over (power of two). The canonical hash's low bits pick
// the stripe; SplitMix64 is a full-avalanche finalizer, so they are
// uniform and occupancy balances without rehashing.
const stripes = 16

// stripe is one lock of the store and the cache and flights it guards.
// The pad keeps adjacent stripes' mutexes on distinct cache lines.
type stripe struct {
	mu      sync.Mutex
	c       *rescache.Cache
	flights map[uint64]*flight // in-progress computations by key
	_       [40]byte           // pad: no false sharing with the next stripe's mutex
}

// flight is one in-progress computation and its outcome. The first
// waiter to join makes done, under the stripe lock, so a flight nobody
// joins — the usual miss — costs no channel.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// store stripes a rescache.Cache and a flight map over n stripes.
// Relative to one big rescache.Cache:
//
//   - Lookup, storage and stats are exact per stripe, so a
//     one-stripe store caches exactly as the bare cache does (the
//     differential tests pin this).
//   - The global bounds split exactly across stripes: each gets
//     bound/n and the first bound%n stripes one more, so the shares sum
//     to the configured bounds. A stripe whose entry share is zero
//     caches nothing. Eviction order is approximate-global-LRU: each
//     stripe evicts its own least-recently-used entry.
//
// All methods are safe for concurrent use.
type store struct {
	stripes []stripe
	mask    uint64
}

// newStore builds a store of n stripes (a power of two) whose caches
// together hold at most maxEntries bodies and maxBytes body bytes.
func newStore(n, maxEntries int, maxBytes int64) *store {
	st := &store{stripes: make([]stripe, n), mask: uint64(n - 1)}
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.c = rescache.New(int(share(int64(maxEntries), n, i)), share(maxBytes, n, i))
		sp.flights = map[uint64]*flight{}
	}
	return st
}

// share returns stripe i's part of bound split over n stripes: bound/n,
// plus one for the first bound%n stripes.
func share(bound int64, n, i int) int64 {
	s := bound / int64(n)
	if int64(i) < bound%int64(n) {
		s++
	}
	return s
}

// stripeFor returns the stripe responsible for key.
func (st *store) stripeFor(key uint64) *stripe {
	return &st.stripes[key&st.mask]
}

// lookup is a request's first critical section. It returns the cached
// body for key (f nil), or else key's flight: the one in progress,
// joined, or a new one this caller leads (lead true). A leader must
// call finish; a waiter calls wait.
func (st *store) lookup(key uint64) (body []byte, f *flight, lead bool) {
	sp := st.stripeFor(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if b, ok := sp.c.Get(key); ok {
		return b, nil, false
	}
	if f = sp.flights[key]; f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		return nil, f, false
	}
	f = &flight{}
	sp.flights[key] = f
	return nil, f, true
}

// finish is the leader's second critical section: it caches a
// successful body and retires the flight under one stripe lock, then
// wakes the waiters. A failed flight's error goes to its waiters and is
// not cached, so the next request for key leads again.
func (st *store) finish(key uint64, f *flight, body []byte, err error) {
	f.body, f.err = body, err
	sp := st.stripeFor(key)
	sp.mu.Lock()
	if err == nil {
		sp.c.Put(key, body)
	}
	delete(sp.flights, key)
	done := f.done
	sp.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// wait returns a joined flight's outcome, or ctx's error if ctx ends
// first. Giving up does not cancel the flight: its leader computes on
// for the other waiters and the cache.
func (f *flight) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.body, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// storeStats is the store summed over its stripes.
type storeStats struct {
	rescache.Stats
	entries int   // cached bodies
	bytes   int64 // cached body bytes
	flights int   // computations in progress
}

// stats sums the stripes' cache counters, occupancy and open flights,
// reading each stripe under its lock.
func (st *store) stats() storeStats {
	var t storeStats
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		s := sp.c.Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.entries += sp.c.Len()
		t.bytes += sp.c.SizeBytes()
		t.flights += len(sp.flights)
		sp.mu.Unlock()
	}
	return t
}
