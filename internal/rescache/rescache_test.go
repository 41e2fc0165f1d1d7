package rescache

import (
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced time source.
type fakeClock struct{ t time.Time }

// now returns the current fake time.
func (c *fakeClock) now() time.Time { return c.t }

// advance moves the fake clock forward.
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestEvalKeyPinned pins the default /v1/eval key to the literal the
// server reports in X-Request-Hash for the same request.
func TestEvalKeyPinned(t *testing.T) {
	if got, want := EvalKey("gtx580", "double", 1e9, 4), uint64(0xfc555dea4fbc9888); got != want {
		t.Errorf("EvalKey = %#x, want %#x", got, want)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := New(3, 1<<20, 0, nil)
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
	c := New(100, 10, 0, nil)
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

func TestCacheTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New(10, 1<<20, time.Minute, clk.now)
	c.Put(1, []byte("body"))
	if _, ok := c.Get(1); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.advance(59 * time.Second)
	if _, ok := c.Get(1); !ok {
		t.Error("entry expired before its TTL")
	}
	clk.advance(2 * time.Second) // 61s > 60s TTL
	if _, ok := c.Get(1); ok {
		t.Error("entry survived past its TTL")
	}
	s := c.Stats()
	if s.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", s.Expirations)
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Errorf("expired entry not removed: len %d, bytes %d", c.Len(), c.SizeBytes())
	}
	// Re-putting the same key refreshes the expiry.
	c.Put(1, []byte("body"))
	clk.advance(30 * time.Second)
	c.Put(1, []byte("body"))
	clk.advance(45 * time.Second) // 75s after first put, 45s after refresh
	if _, ok := c.Get(1); !ok {
		t.Error("refreshed entry expired on the stale deadline")
	}
}

// TestCacheNoTTLNeverReadsClock pins that a cache without a TTL never
// calls now, so a caller without a meaningful clock can pass any.
func TestCacheNoTTLNeverReadsClock(t *testing.T) {
	c := New(2, 1<<20, 0, func() time.Time { panic("clock read without a TTL") })
	c.Put(1, []byte("one"))
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	c.Put(3, []byte("three"))
	c.Get(1)
	c.Get(3)
	c.Peek(2)
}

func TestCacheStatsAndDuplicatePut(t *testing.T) {
	c := New(10, 1<<20, 0, nil)
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
// movement, TTL respected — the router-side "would this hit?" probe.
func TestCachePeek(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New(2, 1<<20, time.Minute, clk.now)
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
	// Peek respects the TTL.
	clk.advance(2 * time.Minute)
	if c.Peek(2) {
		t.Error("Peek hit an expired entry")
	}
}
