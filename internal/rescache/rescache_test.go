package rescache

import (
	"bytes"
	"container/list"
	"math/bits"
	"testing"

	"repro/internal/stats"
)

// TestEvalKeyPinned pins the default /v1/eval key to the literal the
// server reports in X-Request-Hash for the same request.
func TestEvalKeyPinned(t *testing.T) {
	if got, want := EvalKey("gtx580", "double", 1e9, 4), uint64(0xfc555dea4fbc9888); got != want {
		t.Errorf("EvalKey = %#x, want %#x", got, want)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := New(3, 1<<20)
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	c.Put(3, []byte("three"))
	// Touch 1 so it is most recently used; inserting 4 must evict 2.
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(4, []byte("four"))
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %d evicted unexpectedly", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := New(100, 10)
	c.Put(1, []byte("aaaa")) // 4 bytes
	c.Put(2, []byte("bbbb")) // 8 total
	c.Put(3, []byte("cccc")) // 12 total -> evict key 1
	if _, ok := c.Get(1); ok {
		t.Error("byte bound not enforced")
	}
	if c.SizeBytes() != 8 {
		t.Errorf("bytes = %d, want 8", c.SizeBytes())
	}
	// A body larger than the whole bound is not cached at all.
	c.Put(4, []byte("0123456789ab"))
	if _, ok := c.Get(4); ok {
		t.Error("oversized body was cached")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheStatsAndDuplicatePut(t *testing.T) {
	c := New(10, 1<<20)
	if _, ok := c.Get(7); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(7, []byte("abc"))
	c.Put(7, []byte("abcdef")) // same key: replace, not duplicate
	if c.Len() != 1 {
		t.Errorf("duplicate put created %d entries", c.Len())
	}
	if c.SizeBytes() != 6 {
		t.Errorf("bytes = %d, want 6 after replacement", c.SizeBytes())
	}
	body, ok := c.Get(7)
	if !ok || string(body) != "abcdef" {
		t.Errorf("got %q", body)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestCachePeek pins Peek's contract: no recency bump, no counter
// movement — the router-side "would this hit?" probe.
func TestCachePeek(t *testing.T) {
	c := New(2, 1<<20)
	if c.Peek(1) {
		t.Error("Peek hit on an empty cache")
	}
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	if !c.Peek(1) || !c.Peek(2) {
		t.Fatal("Peek missed live entries")
	}
	// Peek must not refresh recency: after peeking 1, inserting 3 still
	// evicts 1 (the least recently *used* entry).
	c.Peek(1)
	c.Put(3, []byte("three"))
	if c.Peek(1) {
		t.Error("Peek refreshed recency; key 1 should have been evicted")
	}
	// Peek must not move the counters.
	before := c.Stats()
	c.Peek(2)
	c.Peek(99)
	if after := c.Stats(); after != before {
		t.Errorf("Peek moved counters: %+v -> %+v", before, after)
	}
}

// checkSlab verifies the slab's bookkeeping and its index. The recency
// list runs through exactly Len() slots with consistent back links; the
// free chain holds every other slot but the sentinel, each of them
// zeroed; and the slab has not outgrown maxEntries+1 slots. A slot that
// leaks fails the count. In the table, exactly Len() buckets are
// non-empty, at most half of them, no slot is filed twice, and a probe
// from each live key's home bucket reaches the key's slot before an
// empty bucket or another slot with that key.
func checkSlab(t *testing.T, c *Cache) {
	t.Helper()
	live, last := 0, int32(0)
	for i := c.slots[0].next; i != 0; last, i = i, c.slots[i].next {
		if live++; live > c.Len() {
			t.Fatalf("recency list longer than Len's %d entries", c.Len())
		}
		e := c.slots[i]
		if e.prev != last {
			t.Fatalf("slot %d: prev %d, want %d", i, e.prev, last)
		}
		if j := probe(c, e.key); j != i {
			t.Fatalf("slot %d holds key %#x, which a probe from its home bucket %d resolves to slot %d",
				i, e.key, home(c, e.key), j)
		}
	}
	if c.slots[0].prev != last {
		t.Fatalf("sentinel prev %d, want the last slot %d", c.slots[0].prev, last)
	}
	free := 0
	for i := c.free; i != 0; i = c.slots[i].next {
		if free++; free > len(c.slots) {
			t.Fatal("free chain cycles")
		}
		if e := c.slots[i]; e.body != nil || e.key != 0 || e.prev != 0 {
			t.Fatalf("free slot %d not zeroed: %+v", i, e)
		}
	}
	if live != c.Len() || 1+live+free != len(c.slots) {
		t.Fatalf("%d slots: %d linked + %d free + the sentinel, with Len %d", len(c.slots), live, free, c.Len())
	}
	if len(c.slots) > c.maxEntries+1 {
		t.Fatalf("%d slots for a %d-entry bound", len(c.slots), c.maxEntries)
	}
	filed := make(map[int32]int, c.Len())
	for b, i := range c.table {
		if i == 0 {
			continue
		}
		if prev, dup := filed[i]; dup {
			t.Fatalf("slot %d filed in buckets %d and %d", i, prev, b)
		}
		filed[i] = b
	}
	if len(filed) != c.Len() || 2*len(filed) > len(c.table) {
		t.Fatalf("%d of %d buckets filled, with Len %d", len(filed), len(c.table), c.Len())
	}
}

// fibMul is the multiplier of the index's Fibonacci hash, and fibInv
// its inverse modulo 2^64, so that a test can build the key that
// hashes to any chosen value.
const (
	fibMul = 0x9E3779B97F4A7C15
	fibInv = 0xF1DE83E19937733D
)

// home recomputes key's home bucket from the hash's definition.
func home(c *Cache, key uint64) int {
	return int((key ^ c.seed) * fibMul >> (64 - bits.Len(uint(len(c.table))-1)))
}

// probe walks the table from key's home bucket and returns the first
// slot holding key, or 0 at an empty bucket.
func probe(c *Cache, key uint64) int32 {
	for b, n := home(c, key), 0; n < len(c.table); b, n = (b+1)%len(c.table), n+1 {
		if i := c.table[b]; i == 0 || c.slots[i].key == key {
			return i
		}
	}
	return 0
}

// collidingKey returns key j of a universe built against c's seed. Its
// hash has one of four top-7-bit prefixes, so at every table size up to
// 128 buckets the keys share four home buckets: the last bucket, the
// first, and two adjacent ones in the middle. Runs from the last
// bucket wrap the table end into the run of the first.
func collidingKey(c *Cache, j int) uint64 {
	prefix := [...]uint64{127, 0, 63, 64}[j%4]
	return (prefix<<57|uint64(j/4+1))*fibInv ^ c.seed
}

// TestCacheMatchesListOracle drives the slab Cache and the
// container/list oracle through the same random operation sequences:
// Put with bodies from empty to longer than the byte bound, over a key
// universe small enough that refreshes and evictions are common; Get;
// and Peek. Bounds include zero- and one-entry caches and byte bounds
// of a few bytes. After every operation the return values, Len,
// SizeBytes and every Stats counter must agree, and the slab and its
// index must account for every slot. 200 seeded trials run over small
// integer keys and 200 over collidingKey's universe, whose probe runs
// must wrap the table end and whose evictions must delete from the
// middle of a run, or the trials test nothing the others do not.
func TestCacheMatchesListOracle(t *testing.T) {
	pool := make([]byte, 1024)
	for i := range pool {
		pool[i] = byte(i*7 + i>>8)
	}
	entryBounds := []int{0, 1, 2, 3, 8, 64}
	byteBounds := []int64{0, 1, 5, 16, 100, 1 << 20}
	if m, inv := uint64(fibMul), uint64(fibInv); m*inv != 1 {
		t.Fatalf("%#x is not the inverse of %#x", inv, m)
	}
	if c := New(64, 1<<20); home(c, collidingKey(c, 0)) != len(c.table)-1 || home(c, collidingKey(c, 1)) != 0 {
		t.Fatal("collidingKey does not build keys homed at the table's ends")
	}
	wraps, midRunDeletes := 0, 0
	for trial := 0; trial < 400; trial++ {
		r := stats.DeriveRand(int64(trial), stats.HashLabel("rescache-oracle"))
		maxEntries := entryBounds[r.Intn(len(entryBounds))]
		maxBytes := byteBounds[r.Intn(len(byteBounds))]
		c := New(maxEntries, maxBytes)
		ref := newListCache(maxEntries, maxBytes)
		colliding := trial >= 200
		keys := make([]uint64, 1+r.Intn(2*maxEntries+4))
		for j := range keys {
			keys[j] = uint64(j)
			if colliding {
				keys[j] = collidingKey(c, j)
			}
		}
		maxLen := int(min(maxBytes, 200)) + 3
		for op := 0; op < 2000; op++ {
			key := keys[r.Intn(len(keys))]
			switch n := r.Intn(9); {
			case n < 4:
				off := r.Intn(len(pool) - maxLen)
				body := pool[off : off+r.Intn(maxLen+1)]
				// Would evicting the least recently used entry leave a
				// hole inside its probe run?
				lru, evictions := c.slots[0].prev, c.Stats().Evictions
				midRun := lru != 0 && c.table[(bucketOf(c, lru)+1)%len(c.table)] != 0
				c.Put(key, body)
				ref.Put(key, body)
				if colliding && midRun && c.Stats().Evictions > evictions {
					midRunDeletes++
				}
			case n < 7:
				got, ok := c.Get(key)
				want, wantOK := ref.Get(key)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("trial %d op %d: Get(%d) = %q, %v; oracle %q, %v", trial, op, key, got, ok, want, wantOK)
				}
			default:
				if got, want := c.Peek(key), ref.Peek(key); got != want {
					t.Fatalf("trial %d op %d: Peek(%d) = %v; oracle %v", trial, op, key, got, want)
				}
			}
			if c.Len() != ref.Len() || c.SizeBytes() != ref.SizeBytes() || c.Stats() != ref.Stats() {
				t.Fatalf("trial %d op %d: len %d, bytes %d, %+v; oracle len %d, bytes %d, %+v",
					trial, op, c.Len(), c.SizeBytes(), c.Stats(), ref.Len(), ref.SizeBytes(), ref.Stats())
			}
			checkSlab(t, c)
			// A run wraps when bucket 0 holds a key homed elsewhere.
			if i := c.table[0]; colliding && i != 0 && home(c, c.slots[i].key) != 0 {
				wraps++
			}
		}
	}
	if wraps == 0 || midRunDeletes == 0 {
		t.Fatalf("colliding universes: %d operations left a wrapped run, %d evictions deleted mid-run; want both > 0", wraps, midRunDeletes)
	}
}

// bucketOf returns the bucket slot i is filed in.
func bucketOf(c *Cache, i int32) int {
	b := home(c, c.slots[i].key)
	for c.table[b] != i {
		b = (b + 1) % len(c.table)
	}
	return b
}

// FuzzCacheOps decodes bytes into Put, Get and Peek calls on a Cache
// and the list oracle, over a 16-key universe built against the cache's
// seed: 12 collidingKey keys, which share four home buckets, and 4
// whose hashes spread. entries bounds the cache at 0–16 entries and
// bound picks a byte bound. Each pair of op bytes is one call: the
// first picks the call (mod 3) and a body length (div 3), the second
// the key. After every call the results, Len, SizeBytes and Stats must
// agree, and checkSlab must pass.
func FuzzCacheOps(f *testing.F) {
	pool := make([]byte, 86)
	f.Fuzz(func(t *testing.T, entries, bound uint8, ops []byte) {
		maxEntries := int(entries % 17)
		maxBytes := []int64{0, 1, 5, 16, 100, 1 << 20}[bound%6]
		c := New(maxEntries, maxBytes)
		ref := newListCache(maxEntries, maxBytes)
		var keys [16]uint64
		for j := range keys {
			if j < 12 {
				keys[j] = collidingKey(c, j)
			} else {
				keys[j] = stats.SplitMix64(uint64(j))*fibInv ^ c.seed
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			key := keys[ops[1]%16]
			switch ops[0] % 3 {
			case 0:
				body := pool[:ops[0]/3]
				c.Put(key, body)
				ref.Put(key, body)
			case 1:
				got, ok := c.Get(key)
				want, wantOK := ref.Get(key)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("Get(%#x) = %q, %v; oracle %q, %v", key, got, ok, want, wantOK)
				}
			default:
				if got, want := c.Peek(key), ref.Peek(key); got != want {
					t.Fatalf("Peek(%#x) = %v; oracle %v", key, got, want)
				}
			}
			if c.Len() != ref.Len() || c.SizeBytes() != ref.SizeBytes() || c.Stats() != ref.Stats() {
				t.Fatalf("len %d, bytes %d, %+v; oracle len %d, bytes %d, %+v",
					c.Len(), c.SizeBytes(), c.Stats(), ref.Len(), ref.SizeBytes(), ref.Stats())
			}
			checkSlab(t, c)
		}
	})
}

// TestCacheWarmAllocatesNothing pins what the slab is for: on a full
// cache, a Put that evicts, a Get hit that relinks its entry and a Peek
// each allocate nothing. Afterwards the cache must hold exactly the
// newest keys, so every Put evicted the least recently used one, and
// the slab must not have grown.
func TestCacheWarmAllocatesNothing(t *testing.T) {
	const n = 64
	body := make([]byte, 256)
	c := New(n, 1<<20)
	next := uint64(0)
	put := func() { c.Put(next, body); next++ }
	for next < n {
		put()
	}
	if a := testing.AllocsPerRun(1000, put); a != 0 {
		t.Errorf("Put with eviction allocates %v per call", a)
	}
	for k := next - n; k < next; k++ {
		if !c.Peek(k) {
			t.Fatalf("key %d of the newest %d was evicted", k, n)
		}
	}
	// Get the least recently used entry each time, so every hit
	// relinks.
	g := uint64(0)
	get := func() {
		if _, ok := c.Get(next - n + g%n); !ok {
			t.Fatalf("Get(%d) missed", next-n+g%n)
		}
		g++
	}
	if a := testing.AllocsPerRun(1000, get); a != 0 {
		t.Errorf("Get hit allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(1000, func() { c.Peek(next - 1) }); a != 0 {
		t.Errorf("Peek allocates %v per call", a)
	}
	if c.Len() != n || c.Stats().Evictions != next-n {
		t.Errorf("%d entries and %d evictions after %d Puts, want %d and %d",
			c.Len(), c.Stats().Evictions, next, n, next-n)
	}
	checkSlab(t, c)
}

// BenchmarkCacheZipf prices one cache-aside step, a Get and on a miss
// a Put that evicts, under Zipf(1.1) keys at the two sizes the cache
// runs at: a rooflined shard (16 of the default 256 entries, over
// eval_zipf's 500 keys split 16 ways) and a simulated replica (4096
// entries over cluster_1m's 50k keys).
func BenchmarkCacheZipf(b *testing.B) {
	for _, size := range []struct {
		name          string
		entries, keys int
	}{{"shard16", 16, 500 / 16}, {"replica4096", 4096, 50000}} {
		b.Run(size.name, func(b *testing.B) {
			z, err := stats.NewZipf(size.keys, 1.1)
			if err != nil {
				b.Fatal(err)
			}
			r := stats.NewRand(1)
			keys := make([]uint64, 1<<16)
			for i := range keys {
				keys[i] = stats.SplitMix64(uint64(z.Sample(r)))
			}
			c := New(size.entries, 1<<30)
			body := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&(len(keys)-1)]
				if _, ok := c.Get(k); !ok {
					c.Put(k, body)
				}
			}
		})
	}
}

// listCache is the container/list LRU that the slab Cache replaced,
// kept as the oracle TestCacheMatchesListOracle holds Cache to. Apart
// from its names, this paragraph and the TTL both have since dropped,
// it is the replaced code verbatim.
//
// listCache is the content-addressed LRU result cache: bodies keyed by
// canonical request hash, bounded by entry count and total body bytes.
//
// A listCache is not safe for concurrent use; callers that share one hold
// their own lock.
type listCache struct {
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	index      map[uint64]*list.Element
	bytes      int64
	stats      Stats
}

// listEntry is one cached response body.
type listEntry struct {
	key  uint64
	body []byte
}

// newListCache builds a cache holding at most maxEntries bodies and maxBytes
// total body bytes.
func newListCache(maxEntries int, maxBytes int64) *listCache {
	return &listCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      map[uint64]*list.Element{},
	}
}

// Get returns the cached body for key and marks it most recently used.
func (c *listCache) Get(key uint64) ([]byte, bool) {
	el, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*listEntry).body, true
}

// Peek reports whether key holds a listEntry without touching recency
// order or the counters — the read a router uses to ask "would this
// replica hit?" before committing a request.
func (c *listCache) Peek(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Put stores body under key, evicting least-recently-used entries until
// both bounds hold. A body larger than the byte bound is not cached.
func (c *listCache) Put(key uint64, body []byte) {
	if c.maxEntries <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	if el, ok := c.index[key]; ok {
		// Same key means same body: refresh recency rather than
		// storing a duplicate.
		e := el.Value.(*listEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&listEntry{key: key, body: body})
	c.bytes += int64(len(body))
	// The new listEntry fits both bounds alone, so eviction stops before it.
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.remove(c.ll.Back())
		c.stats.Evictions++
	}
}

// remove unlinks one listEntry.
func (c *listCache) remove(el *list.Element) {
	e := el.Value.(*listEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= int64(len(e.body))
}

// Len returns the number of entries.
func (c *listCache) Len() int { return c.ll.Len() }

// SizeBytes returns the total cached body bytes.
func (c *listCache) SizeBytes() int64 { return c.bytes }

// Stats returns the lifetime counters.
func (c *listCache) Stats() Stats { return c.stats }
