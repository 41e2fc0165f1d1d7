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
	"math/rand"

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
// through next and reused.
//
// The index is an open-addressed table of slot numbers, probed
// linearly from a key's home bucket; 0, the sentinel's slot, marks an
// empty bucket. A bucket holds no key: a probe compares the key stored
// in the slot it names. The table is at most half full and doubles
// when an insert would pass that, and a removal shifts the rest of its
// probe run back, so no tombstones build up. The home bucket mixes in a
// seed drawn per cache, so a client cannot choose request keys that
// pile into one run. Hits, misses and the eviction order do not depend
// on the seed. Once the slab and the table have grown to the entry
// bound (maxEntries+1 slots), Get, Peek and Put allocate nothing.
//
// A Cache is not safe for concurrent use; callers that share one hold
// their own lock.
type Cache struct {
	maxEntries int
	maxBytes   int64
	slots      []entry // slots[0] is the sentinel
	free       int32   // first free slot, chained through next; 0 when none
	table      []int32 // key index: a slot per bucket, 0 when empty
	shift      uint    // 64 - log2(len(table))
	seed       uint64
	n          int // live entries
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
		table:      make([]int32, 1<<3),
		shift:      64 - 3,
		seed:       rand.Uint64(),
	}
}

// home returns key's home bucket: the top bits of a Fibonacci hash of
// the seeded key.
func (c *Cache) home(key uint64) int {
	return int((key ^ c.seed) * 0x9E3779B97F4A7C15 >> c.shift)
}

// lookup returns the slot holding key, or 0 when none does.
func (c *Cache) lookup(key uint64) int32 {
	mask := len(c.table) - 1
	for b := c.home(key); ; b = (b + 1) & mask {
		if i := c.table[b]; i == 0 || c.slots[i].key == key {
			return i
		}
	}
}

// Get returns the cached body for key and marks it most recently used.
func (c *Cache) Get(key uint64) ([]byte, bool) {
	i := c.lookup(key)
	if i == 0 {
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
func (c *Cache) Peek(key uint64) bool { return c.lookup(key) != 0 }

// Put stores body under key, evicting least-recently-used entries until
// both bounds hold. A body larger than the byte bound is not cached.
func (c *Cache) Put(key uint64, body []byte) {
	if c.maxEntries <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	if i := c.lookup(key); i != 0 {
		// Same key means same body: refresh recency rather than
		// storing a duplicate.
		e := &c.slots[i]
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.touch(i)
		return
	}
	// Make room first, so the table never holds more than maxEntries
	// keys. The new entry fits both bounds alone, so eviction stops
	// before the cache is empty, and it evicts what inserting first
	// would have.
	for c.n >= c.maxEntries || c.bytes+int64(len(body)) > c.maxBytes {
		c.remove(c.slots[0].prev)
		c.stats.Evictions++
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
	c.bytes += int64(len(body))
	if c.n++; c.n > len(c.table)/2 {
		c.grow()
	}
	c.index(i)
}

// index files slot i in the first empty bucket of its key's probe run.
func (c *Cache) index(i int32) {
	mask := len(c.table) - 1
	b := c.home(c.slots[i].key)
	for c.table[b] != 0 {
		b = (b + 1) & mask
	}
	c.table[b] = i
}

// grow doubles the table and files every live slot again.
func (c *Cache) grow() {
	old := c.table
	c.table = make([]int32, 2*len(old))
	c.shift--
	for _, i := range old {
		if i != 0 {
			c.index(i)
		}
	}
}

// unindex empties slot i's bucket, then walks the rest of the probe
// run, moving back each slot whose home bucket does not lie between
// the hole and its bucket, so that every key stays reachable from its
// home without passing an empty bucket.
func (c *Cache) unindex(i int32) {
	mask := len(c.table) - 1
	hole := c.home(c.slots[i].key)
	for c.table[hole] != i {
		hole = (hole + 1) & mask
	}
	for b := (hole + 1) & mask; c.table[b] != 0; b = (b + 1) & mask {
		// The slot in b may fill the hole when its home is no nearer
		// b, going forward, than the hole is.
		if j := c.table[b]; (b-c.home(c.slots[j].key))&mask >= (b-hole)&mask {
			c.table[hole] = j
			hole = b
		}
	}
	c.table[hole] = 0
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
	c.unindex(i)
	c.n--
	e := &c.slots[i]
	c.bytes -= int64(len(e.body))
	*e = entry{next: c.free}
	c.free = i
}

// Len returns the number of entries.
func (c *Cache) Len() int { return c.n }

// SizeBytes returns the total cached body bytes.
func (c *Cache) SizeBytes() int64 { return c.bytes }

// Stats returns the lifetime counters.
func (c *Cache) Stats() Stats { return c.stats }
