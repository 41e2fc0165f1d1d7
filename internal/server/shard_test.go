package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The sharded cache has one correctness story: a single-shard
// ShardedCache IS a ResultCache (byte-exact, counter-exact), and a
// multi-shard one is the same cache partitioned by hash bits with the
// global bounds divided per shard. These tests pin both halves
// differentially, then hammer a real Server under -race with exact
// counter assertions to prove the sharded accounting adds up the way
// the single-lock cache's did.

// shardTestClock is a hand-advanced clock for TTL differential tests.
type shardTestClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *shardTestClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *shardTestClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// splitmixNext is a tiny deterministic PRNG for op sequences (the repo
// convention: no math/rand in differential tests, the sequence is part
// of the spec).
func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4490d649bb0e1
	return z ^ (z >> 31)
}

// TestShardedCacheSingleShardMatchesFlat drives an identical randomized
// op sequence — puts, gets, peeks, refreshes, TTL expiry via a shared
// fake clock — through a one-shard ShardedCache and a flat ResultCache
// and requires byte-exact results and identical lifetime counters at
// every step.
func TestShardedCacheSingleShardMatchesFlat(t *testing.T) {
	clk := &shardTestClock{t: time.Unix(1700000000, 0)}
	const maxEntries, maxBytes = 8, 256
	ttl := 10 * time.Second
	flat := NewResultCache(maxEntries, maxBytes, ttl, clk.now)
	sharded := NewShardedCache(1, maxEntries, maxBytes, ttl, clk.now)
	if got := sharded.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}

	seed := uint64(42)
	for step := 0; step < 4000; step++ {
		r := splitmixNext(&seed)
		key := r % 16
		switch (r >> 32) % 5 {
		case 0, 1: // Put (duplicates refresh)
			body := []byte(fmt.Sprintf("body-%d-%d", key, r%3))
			flat.Put(key, body)
			sharded.Put(key, body)
		case 2: // Get
			fb, fok := flat.Get(key)
			sb, sok := sharded.Get(key)
			if fok != sok || string(fb) != string(sb) {
				t.Fatalf("step %d: Get(%d) = (%q,%v) flat vs (%q,%v) sharded", step, key, fb, fok, sb, sok)
			}
		case 3: // Peek
			if fp, sp := flat.Peek(key), sharded.Peek(key); fp != sp {
				t.Fatalf("step %d: Peek(%d) = %v flat vs %v sharded", step, key, fp, sp)
			}
		case 4: // advance the clock, occasionally past the TTL
			d := time.Duration(r%4) * 3 * time.Second
			clk.advance(d)
		}
		if flat.Len() != sharded.Len() || flat.SizeBytes() != sharded.SizeBytes() {
			t.Fatalf("step %d: len/bytes diverge: flat (%d,%d) vs sharded (%d,%d)",
				step, flat.Len(), flat.SizeBytes(), sharded.Len(), sharded.SizeBytes())
		}
		if fs, ss := flat.Snapshot(), sharded.Snapshot(); fs != ss {
			t.Fatalf("step %d: stats diverge: flat %+v vs sharded %+v", step, fs, ss)
		}
	}
	if s := flat.Snapshot(); s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 || s.Expirations == 0 {
		t.Fatalf("op sequence failed to exercise all counters: %+v", s)
	}
}

// TestShardedCacheShardRounding pins the shard-count normalization:
// powers of two pass through, everything else rounds up, and degenerate
// requests get one shard.
func TestShardedCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewShardedCache(tc.in, 64, 1<<20, 0, nil).Shards(); got != tc.want {
			t.Errorf("NewShardedCache(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedCacheAggregateBounds fills a multi-shard cache far past
// its bounds and checks the aggregate accounting: entries and bytes
// never exceed the configured global bounds, every reported byte
// belongs to a retrievable entry, and evictions are counted.
func TestShardedCacheAggregateBounds(t *testing.T) {
	const shards, maxEntries, maxBytes = 8, 64, int64(4096)
	sc := NewShardedCache(shards, maxEntries, maxBytes, 0, nil)
	body := make([]byte, 32)
	var keys []uint64
	seed := uint64(7)
	for i := 0; i < 1000; i++ {
		key := splitmixNext(&seed)
		keys = append(keys, key)
		sc.Put(key, body)
		if n := sc.Len(); n > maxEntries {
			t.Fatalf("after %d puts: %d entries exceed the global bound %d", i+1, n, maxEntries)
		}
		if b := sc.SizeBytes(); b > maxBytes {
			t.Fatalf("after %d puts: %d bytes exceed the global bound %d", i+1, b, maxBytes)
		}
	}
	live := 0
	for _, key := range keys {
		if sc.Peek(key) {
			live++
		}
	}
	if live != sc.Len() {
		t.Fatalf("Peek finds %d live entries but Len() reports %d", live, sc.Len())
	}
	if got, want := sc.SizeBytes(), int64(live*len(body)); got != want {
		t.Fatalf("SizeBytes() = %d, want %d (%d live entries × %d bytes)", got, want, live, len(body))
	}
	if s := sc.Snapshot(); s.Evictions != uint64(len(keys)-live) {
		t.Fatalf("evictions = %d, want %d (stored %d keys, %d live)", s.Evictions, len(keys)-live, len(keys), live)
	}
}

// shardStressBodies builds the no-eviction request universe for the
// accounting tests: distinct /v1/eval points and /v1/evalbatch columns,
// plus the stub campaign. Distinct intensities hash to distinct keys.
func shardStressBodies(evalKeys, batchKeys int) (evals, batches []string) {
	for i := 0; i < evalKeys; i++ {
		evals = append(evals,
			fmt.Sprintf(`{"machine":"gtx580","precision":"double","work":1e9,"intensity":%d.5}`, i+1))
	}
	for i := 0; i < batchKeys; i++ {
		batches = append(batches,
			fmt.Sprintf(`{"machine":"i7-950","precision":"single","intensities":[%d,%d.25]}`, i+1, i+1))
	}
	return evals, batches
}

// serveOK posts body to path on h and returns the response body,
// failing tb on a non-200.
func serveOK(tb testing.TB, h http.Handler, path, body string) string {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w.Body.String()
}

// TestShardedServerMatchesSingleLockServer runs identical deterministic
// traffic against a 1-shard server (the pre-PR-10 single-lock
// configuration) and a 16-shard server, and requires byte-identical
// response bodies and identical end-state counters. Sharding must be
// invisible to everything but lock contention.
func TestShardedServerMatchesSingleLockServer(t *testing.T) {
	single := New(Config{CacheShards: 1})
	sharded := New(Config{CacheShards: 16})
	t.Cleanup(single.Close)
	t.Cleanup(sharded.Close)
	single.engine = (&stubEngine{}).fn
	sharded.engine = (&stubEngine{}).fn

	evals, batches := shardStressBodies(6, 4)
	paths := make([]string, 0, len(evals)+len(batches)+1)
	bodies := make([]string, 0, cap(paths))
	for _, b := range evals {
		paths, bodies = append(paths, "/v1/eval"), append(bodies, b)
	}
	for _, b := range batches {
		paths, bodies = append(paths, "/v1/evalbatch"), append(bodies, b)
	}
	paths, bodies = append(paths, "/v1/campaign"), append(bodies, smallCampaign)

	for round := 0; round < 3; round++ { // round 0 misses, rounds 1-2 hit
		for i := range paths {
			got := serveOK(t, sharded.Handler(), paths[i], bodies[i])
			want := serveOK(t, single.Handler(), paths[i], bodies[i])
			if got != want {
				t.Fatalf("round %d %s: sharded body differs from single-lock body:\n got: %q\nwant: %q",
					round, paths[i], got, want)
			}
		}
	}
	if s1, s16 := single.cache.Snapshot(), sharded.cache.Snapshot(); s1 != s16 {
		t.Fatalf("cache stats diverge: single %+v vs sharded %+v", s1, s16)
	}
	if l1, l16 := single.cache.Len(), sharded.cache.Len(); l1 != l16 {
		t.Fatalf("cache entries diverge: single %d vs sharded %d", l1, l16)
	}
	for _, name := range []string{
		"requests_eval_total", "requests_evalbatch_total", "requests_campaign_total",
		"cache_hits_total", "cache_misses_total", "eval_computes_total",
		"evalbatch_computes_total", "engine_runs_total", "coalesced_total",
	} {
		if v1, v16 := single.reg.Counter(name).Value(), sharded.reg.Counter(name).Value(); v1 != v16 {
			t.Fatalf("%s diverges: single %d vs sharded %d", name, v1, v16)
		}
	}
}

// TestShardedServerContentionExactCounters is the -race stress test:
// many goroutines hammer mixed endpoints over a no-eviction key
// universe, and afterwards the counters must balance EXACTLY — sharded
// per-shard accounting sums to the same invariants the single-lock
// cache guaranteed:
//
//	hits + misses          == successful requests      (one Get each)
//	misses                 == eval computes + batch computes
//	                          + engine runs + coalesced flights
//	cache.Snapshot()       == the handler-side hit/miss counters
//	entries                == distinct request keys; no evictions
func TestShardedServerContentionExactCounters(t *testing.T) {
	s := New(Config{CacheShards: 16})
	t.Cleanup(s.Close)
	s.engine = (&stubEngine{}).fn

	const goroutines = 16
	const rounds = 60
	evals, batches := shardStressBodies(5, 3)
	uniqueKeys := len(evals) + len(batches) + 1 // + the stub campaign

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 3 {
				case 0:
					serveOK(t, s.Handler(), "/v1/eval", evals[(g*rounds+r)%len(evals)])
				case 1:
					serveOK(t, s.Handler(), "/v1/evalbatch", batches[(g*rounds+r)%len(batches)])
				case 2:
					serveOK(t, s.Handler(), "/v1/campaign", smallCampaign)
				}
			}
		}(g)
	}
	wg.Wait()

	requests := s.reg.Counter("requests_eval_total").Value() +
		s.reg.Counter("requests_evalbatch_total").Value() +
		s.reg.Counter("requests_campaign_total").Value()
	if want := uint64(goroutines * rounds); requests != want {
		t.Fatalf("requests = %d, want %d", requests, want)
	}
	hits := s.reg.Counter("cache_hits_total").Value()
	misses := s.reg.Counter("cache_misses_total").Value()
	if hits+misses != requests {
		t.Fatalf("hits %d + misses %d != requests %d: a request skipped or double-counted its cache Get", hits, misses, requests)
	}
	computes := s.reg.Counter("eval_computes_total").Value() +
		s.reg.Counter("evalbatch_computes_total").Value() +
		s.reg.Counter("engine_runs_total").Value() +
		s.reg.Counter("coalesced_total").Value()
	if misses != computes {
		t.Fatalf("misses %d != computes+coalesced %d: a miss vanished or a compute ran without a miss", misses, computes)
	}
	cs := s.cache.Snapshot()
	if cs.Hits != hits || cs.Misses != misses {
		t.Fatalf("cache-internal counters %+v disagree with handler counters (hits %d, misses %d)", cs, hits, misses)
	}
	if cs.Evictions != 0 || cs.Expirations != 0 {
		t.Fatalf("no-eviction universe evicted or expired: %+v", cs)
	}
	if got := s.cache.Len(); got != uniqueKeys {
		t.Fatalf("cache holds %d entries, want exactly %d distinct request keys", got, uniqueKeys)
	}
}

// TestWarmEvalAllocations pins the warm /v1/eval direct path to the
// allocation budget the PR 10 acceptance criteria demand (≤10; the
// measured path is 4 — three header []string values and the request
// hash — so the pin leaves headroom for net/http drift, not for
// regressions in this package).
func TestWarmEvalAllocations(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	p := newDirectPoster(s.Handler(), "/v1/eval", benchEvalBody)
	p.post(t) // warm: fill the cache
	allocs := testing.AllocsPerRun(500, func() { p.post(t) })
	if allocs > 8 {
		t.Fatalf("warm /v1/eval allocates %.1f per request, want ≤ 8", allocs)
	}
}

// TestBatch32ColdAllocations pins the allocation ceiling of a cold
// batch_cold-shaped /v1/evalbatch request (BenchmarkServerEvalBatch32Cold):
// evaluation columns, the float memo and the body scratch come from the
// pooled batchScratch, so a miss allocates little beyond the cached body
// and the cache and flight bookkeeping.
func TestBatch32ColdAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops entries under the race detector")
	}
	s := New(Config{})
	t.Cleanup(s.Close)
	p, bodies := batch32ColdPoster(s.Handler())
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p.body = bodies[i%len(bodies)]
		i++
		p.post(t)
	})
	if allocs > 10 {
		t.Fatalf("cold 32-point /v1/evalbatch allocates %.1f per request, want ≤ 10", allocs)
	}
}
