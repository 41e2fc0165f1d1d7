// Package rescache is the result-cache core that rooflined
// (internal/server) and the fleet simulator (internal/cluster) share:
// the canonical request key and the content-addressed LRU cache it
// addresses.
//
// The paper's model answers every query in closed form, and the
// campaign engine is deterministic (fixed config → byte-identical
// output at any worker count), so a response is a pure function of its
// request. A canonical 64-bit hash of the request therefore doubles as
// the cache key and the coalescing key, and a cached body is bit for
// bit the body a fresh computation would produce.
//
// The package is a leaf: it takes no lock and imports nothing of the
// HTTP layer. The server stripes Caches behind one mutex per shard; a
// simulated replica uses one bare. The LRU is a slab of entries linked
// by slot index, so a warm cache allocates nothing per operation.
// (internal/cache is a different thing: the paper's set-associative
// cache simulator.)
package rescache

import (
	"math"

	"repro/internal/stats"
)

// Request keys. The hash folds every semantically significant field —
// in a fixed order — through stats.SplitMix64, with strings condensed
// by stats.HashLabel (FNV-1a), so two requests collide only if they
// describe the same computation.

// version is folded first; bump it whenever the request semantics or
// the folding order changes, which invalidates every cached entry.
const version = 1

// Fold mixes one 64-bit label into the running hash h.
func Fold(h, v uint64) uint64 { return stats.SplitMix64(h ^ v) }

// FoldString mixes a string label into the running hash.
func FoldString(h uint64, s string) uint64 { return Fold(h, stats.HashLabel(s)) }

// FoldFloat mixes a float64 by bit pattern, so -0 vs 0 and every NaN
// payload hash distinctly (such requests are rejected before hashing
// anyway).
func FoldFloat(h uint64, f float64) uint64 { return Fold(h, math.Float64bits(f)) }

// FoldBool mixes a bool as 0/1.
func FoldBool(h uint64, b bool) uint64 {
	if b {
		return Fold(h, 1)
	}
	return Fold(h, 0)
}

// Domain starts a key: the version, then the request kind's label
// ("eval", "evalbatch", "campaign"), which keeps the kinds' keys from
// ever colliding.
func Domain(label string) uint64 { return FoldString(Fold(0, version), label) }

// EvalKey returns the canonical key of one eval-shaped computation with
// the default model — the key POST /v1/eval caches the request under,
// and the key a simulated replica addresses its cache with, so fleet
// hit rates come from the production keying scheme.
func EvalKey(machineKey, precision string, work, intensity float64) uint64 {
	h := Domain("eval")
	h = FoldString(h, machineKey)
	h = FoldString(h, precision)
	h = FoldFloat(h, work)
	return FoldFloat(h, intensity)
}

// Cache is the content-addressed LRU result cache: bodies keyed by
// canonical request hash, bounded by entry count and total body bytes.
// A body is a pure function of its key, so it never goes stale: Put is
// the only way in and eviction the only way out.
//
// The entries live in one slab, a []entry whose int32 prev/next links
// keep the recency order. Slot 0 is the sentinel: its next is the most
// recently used entry and its prev the least. Freed slots are chained
// through next and reused, and the index maps a key to its slot, so it
// holds no pointers. Once the slab has grown to its bound (maxEntries+2
// slots), Get, Peek and Put allocate nothing.
//
// A Cache is not safe for concurrent use; callers that share one hold
// their own lock.
type Cache struct {
	maxEntries int
	maxBytes   int64
	slots      []entry          // slots[0] is the sentinel
	free       int32            // first free slot, chained through next; 0 when none
	index      map[uint64]int32 // key → slot
	bytes      int64
	stats      Stats
}

// Stats are a cache's lifetime counters.
type Stats struct {
	// Hits counts Get calls that returned a body.
	Hits uint64
	// Misses counts Get calls that found nothing.
	Misses uint64
	// Evictions counts entries dropped to satisfy the size bounds.
	Evictions uint64
}

// entry is one slab slot: a cached response body and its recency links.
type entry struct {
	key        uint64
	body       []byte
	prev, next int32 // slot indices; slot 0 is the sentinel
}

// New builds a cache holding at most maxEntries bodies and maxBytes
// total body bytes.
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		slots:      make([]entry, 1),
		index:      map[uint64]int32{},
	}
}

// Get returns the cached body for key and marks it most recently used.
func (c *Cache) Get(key uint64) ([]byte, bool) {
	i, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.touch(i)
	c.stats.Hits++
	return c.slots[i].body, true
}

// Peek reports whether key holds an entry without touching recency
// order or the counters — the read a router uses to ask "would this
// replica hit?" before committing a request.
func (c *Cache) Peek(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Put stores body under key, evicting least-recently-used entries until
// both bounds hold. A body larger than the byte bound is not cached.
func (c *Cache) Put(key uint64, body []byte) {
	if c.maxEntries <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	if i, ok := c.index[key]; ok {
		// Same key means same body: refresh recency rather than
		// storing a duplicate.
		e := &c.slots[i]
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.touch(i)
		return
	}
	i := c.free
	if i != 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, entry{})
	}
	c.slots[i] = entry{key: key, body: body}
	c.pushFront(i)
	c.index[key] = i
	c.bytes += int64(len(body))
	// The new entry fits both bounds alone, so eviction stops before it.
	for len(c.index) > c.maxEntries || c.bytes > c.maxBytes {
		c.remove(c.slots[0].prev)
		c.stats.Evictions++
	}
}

// pushFront links slot i in as the most recently used entry.
func (c *Cache) pushFront(i int32) {
	head := &c.slots[0]
	c.slots[i].prev, c.slots[i].next = 0, head.next
	c.slots[head.next].prev = i
	head.next = i
}

// unlink takes slot i out of the recency order.
func (c *Cache) unlink(i int32) {
	e := &c.slots[i]
	c.slots[e.prev].next = e.next
	c.slots[e.next].prev = e.prev
}

// touch makes slot i the most recently used entry.
func (c *Cache) touch(i int32) {
	if c.slots[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// remove drops the entry in slot i and frees the slot. Zeroing it lets
// the collector take the body.
func (c *Cache) remove(i int32) {
	c.unlink(i)
	e := &c.slots[i]
	delete(c.index, e.key)
	c.bytes -= int64(len(e.body))
	*e = entry{next: c.free}
	c.free = i
}

// Len returns the number of entries.
func (c *Cache) Len() int { return len(c.index) }

// SizeBytes returns the total cached body bytes.
func (c *Cache) SizeBytes() int64 { return c.bytes }

// Stats returns the lifetime counters.
func (c *Cache) Stats() Stats { return c.stats }
