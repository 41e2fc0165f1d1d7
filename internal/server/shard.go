package server

import (
	"sync"
	"time"

	"repro/internal/rescache"
)

// cacheShards is the number of independently locked shards the result
// cache stripes keys over (power of two). The canonical hash's low bits
// pick the shard; SplitMix64 is a full-avalanche finalizer, so they are
// uniform and occupancy balances without rehashing. Flights are striped
// the same way (flightShards).
const cacheShards = 16

// cacheShard is one lock-plus-cache stripe of a shardedCache. The pad
// keeps adjacent shards' mutexes on distinct cache lines.
type cacheShard struct {
	mu sync.Mutex
	c  *rescache.Cache
	_  [48]byte // pad: no false sharing with the next shard's mutex
}

// shardedCache is the server's result cache: a rescache.Cache per
// shard, each behind its own mutex, so hits on distinct keys scale
// across cores.
//
// Semantics relative to one big rescache.Cache:
//
//   - Lookup, storage, TTL, and stats are exact per shard, so a
//     one-shard shardedCache behaves identically to the bare cache (the
//     differential tests pin this).
//   - The global bounds split exactly across shards: each shard gets
//     bound/n and the first bound%n shards one more, so the shares sum
//     to the configured bounds. A shard whose entry share is zero
//     caches nothing. Eviction order is approximate-global-LRU: each
//     shard evicts its own least-recently-used entry.
//
// Len, SizeBytes, and Stats sum across shards. All methods are safe for
// concurrent use.
type shardedCache struct {
	shards []cacheShard
	mask   uint64
}

// newShardedCache builds a cache of n shards (a power of two) that
// together hold at most maxEntries bodies and maxBytes body bytes. ttl
// and now behave as in rescache.New.
func newShardedCache(n, maxEntries int, maxBytes int64, ttl time.Duration, now func() time.Time) *shardedCache {
	sc := &shardedCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range sc.shards {
		entries := share(int64(maxEntries), n, i)
		sc.shards[i].c = rescache.New(int(entries), share(maxBytes, n, i), ttl, now)
	}
	return sc
}

// share returns shard i's part of bound split over n shards: bound/n,
// plus one for the first bound%n shards.
func share(bound int64, n, i int) int64 {
	s := bound / int64(n)
	if int64(i) < bound%int64(n) {
		s++
	}
	return s
}

// shard returns the stripe responsible for key.
func (sc *shardedCache) shard(key uint64) *cacheShard {
	return &sc.shards[key&sc.mask]
}

// Get returns the cached body for key and marks it most recently used
// within its shard.
func (sc *shardedCache) Get(key uint64) ([]byte, bool) {
	sh := sc.shard(key)
	sh.mu.Lock()
	body, ok := sh.c.Get(key)
	sh.mu.Unlock()
	return body, ok
}

// Put stores body under key in its shard, evicting that shard's
// least-recently-used entries until its bounds hold.
func (sc *shardedCache) Put(key uint64, body []byte) {
	sh := sc.shard(key)
	sh.mu.Lock()
	sh.c.Put(key, body)
	sh.mu.Unlock()
}

// each calls fn on every shard's cache under that shard's lock.
func (sc *shardedCache) each(fn func(c *rescache.Cache)) {
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.Lock()
		fn(sh.c)
		sh.mu.Unlock()
	}
}

// Len returns the number of entries summed across shards.
func (sc *shardedCache) Len() int {
	n := 0
	sc.each(func(c *rescache.Cache) { n += c.Len() })
	return n
}

// SizeBytes returns the total cached body bytes summed across shards.
func (sc *shardedCache) SizeBytes() int64 {
	var n int64
	sc.each(func(c *rescache.Cache) { n += c.SizeBytes() })
	return n
}

// Stats returns the lifetime counters summed across shards.
func (sc *shardedCache) Stats() rescache.Stats {
	var t rescache.Stats
	sc.each(func(c *rescache.Cache) {
		s := c.Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.Expirations += s.Expirations
	})
	return t
}
