package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/rescache"
)

// The store has two correctness stories. As a cache, a one-stripe store
// IS a rescache.Cache behind a lock (byte-exact, counter-exact), and a
// multi-stripe one is the same cache partitioned by hash bits with the
// global bounds split exactly per stripe. As a flight table, it
// computes each key once: concurrent lookups join one flight, a failed
// flight is not cached, and a waiter can give up without cancelling the
// flight. These tests pin both, then hammer a real Server under -race
// with exact counter assertions.

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

// errUncomputed retires the flights the cache tests' reads open.
var errUncomputed = errors.New("not computed")

// get reads key as a request does, through lookup, on a store no other
// goroutine uses; the flight a miss opens is retired uncached, as a
// failed computation's is.
func get(st *store, key uint64) ([]byte, bool) {
	body, f, _ := st.lookup(key)
	if f == nil {
		return body, true
	}
	st.finish(key, f, nil, errUncomputed)
	return nil, false
}

// put caches body under key through finish, as a flight leader does.
func put(st *store, key uint64, body []byte) {
	st.finish(key, &flight{}, body, nil)
}

// TestShardedCacheSingleShardMatchesFlat drives an identical randomized
// op sequence — puts, gets, peeks, refreshes — through a one-stripe
// store and a bare rescache.Cache and requires byte-exact results and
// identical lifetime counters at every step.
func TestShardedCacheSingleShardMatchesFlat(t *testing.T) {
	const maxEntries, maxBytes = 8, 256
	flat := rescache.New(maxEntries, maxBytes)
	sharded := newStore(1, maxEntries, maxBytes)

	seed := uint64(42)
	for step := 0; step < 4000; step++ {
		r := splitmixNext(&seed)
		key := r % 16
		switch (r >> 32) % 4 {
		case 0, 1: // Put (duplicates refresh)
			body := []byte(fmt.Sprintf("body-%d-%d", key, r%3))
			flat.Put(key, body)
			put(sharded, key, body)
		case 2: // Get
			fb, fok := flat.Get(key)
			sb, sok := get(sharded, key)
			if fok != sok || string(fb) != string(sb) {
				t.Fatalf("step %d: Get(%d) = (%q,%v) flat vs (%q,%v) sharded", step, key, fb, fok, sb, sok)
			}
		case 3: // Peek, which only the stripe's bare cache offers
			if fp, sp := flat.Peek(key), sharded.stripeFor(key).c.Peek(key); fp != sp {
				t.Fatalf("step %d: Peek(%d) = %v flat vs %v sharded", step, key, fp, sp)
			}
		}
		ss := sharded.stats()
		if flat.Len() != ss.entries || flat.SizeBytes() != ss.bytes {
			t.Fatalf("step %d: len/bytes diverge: flat (%d,%d) vs sharded (%d,%d)",
				step, flat.Len(), flat.SizeBytes(), ss.entries, ss.bytes)
		}
		if fs := flat.Stats(); fs != ss.Stats || ss.flights != 0 {
			t.Fatalf("step %d: stats diverge: flat %+v vs sharded %+v", step, fs, ss)
		}
	}
	if s := flat.Stats(); s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("op sequence failed to exercise all counters: %+v", s)
	}
}

// TestShardedCacheAggregateBounds fills a multi-stripe store far past
// its bounds and checks the aggregate accounting: entries and bytes
// never exceed the configured global bounds, every reported byte
// belongs to a retrievable entry, and evictions are counted.
func TestShardedCacheAggregateBounds(t *testing.T) {
	const shards, maxEntries, maxBytes = 8, 64, int64(4096)
	sc := newStore(shards, maxEntries, maxBytes)
	body := make([]byte, 32)
	var keys []uint64
	seed := uint64(7)
	for i := 0; i < 1000; i++ {
		key := splitmixNext(&seed)
		keys = append(keys, key)
		put(sc, key, body)
		if n := sc.stats().entries; n > maxEntries {
			t.Fatalf("after %d puts: %d entries exceed the global bound %d", i+1, n, maxEntries)
		}
		if b := sc.stats().bytes; b > maxBytes {
			t.Fatalf("after %d puts: %d bytes exceed the global bound %d", i+1, b, maxBytes)
		}
	}
	live := 0
	for _, key := range keys {
		if sc.stripeFor(key).c.Peek(key) {
			live++
		}
	}
	s := sc.stats()
	if live != s.entries {
		t.Fatalf("Peek finds %d live entries but the store reports %d", live, s.entries)
	}
	if got, want := s.bytes, int64(live*len(body)); got != want {
		t.Fatalf("cached bytes = %d, want %d (%d live entries × %d bytes)", got, want, live, len(body))
	}
	if s.Evictions != uint64(len(keys)-live) {
		t.Fatalf("evictions = %d, want %d (stored %d keys, %d live)", s.Evictions, len(keys)-live, len(keys), live)
	}
}

// TestShardedCacheExactBounds pins that the global bounds split
// exactly over the stripes: bounds smaller than the stripe count still
// hold, rather than rounding every stripe's share up to one.
func TestShardedCacheExactBounds(t *testing.T) {
	s := New(Config{CacheEntries: 4})
	t.Cleanup(s.Close)
	for i := 0; i < 1000; i++ {
		serveOK(t, s.Handler(), "/v1/eval",
			fmt.Sprintf(`{"machine":"gtx580","precision":"double","intensity":%d.5}`, i+1))
	}
	if n := s.store.stats().entries; n == 0 || n > 4 {
		t.Errorf("-cache-entries 4 holds %d entries after 1000 distinct misses, want 1..4", n)
	}

	sc := newStore(stripes, 1<<20, 8)
	seed := uint64(3)
	for i := 0; i < 1000; i++ {
		put(sc, splitmixNext(&seed), []byte{1})
	}
	if b := sc.stats().bytes; b == 0 || b > 8 {
		t.Errorf("an 8-byte bound holds %d bytes after 1000 one-byte puts, want 1..8", b)
	}
}

// TestCacheConcurrentAccess exercises the store under the race
// detector as requests use it — lookup, then finish as a leader or wait
// as a waiter: the bare rescache.Cache and the flight maps are not safe
// for concurrent use, so every access goes through a stripe lock.
func TestCacheConcurrentAccess(t *testing.T) {
	c := newStore(stripes, 16, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := uint64(i % 32)
				body, f, lead := c.lookup(k)
				switch {
				case lead:
					body = []byte{byte(k)}
					c.finish(k, f, body, nil)
				case f != nil:
					var err error
					if body, err = f.wait(context.Background()); err != nil {
						t.Errorf("wait for key %d: %v", k, err)
						continue
					}
				}
				if body[0] != byte(k) {
					t.Errorf("corrupt body for key %d", k)
				}
			}
		}()
	}
	wg.Wait()
	if s := c.stats(); s.entries > 16 || s.flights != 0 {
		t.Errorf("entry bound violated or flight leaked: %d entries, %d flights", s.entries, s.flights)
	}
}

// TestStoreCoalesces: lookups of a key whose flight is open join it;
// the leader's finish hands every waiter its body, and since the body
// is cached as the flight retires, the next lookup is a hit, not a
// re-run.
func TestStoreCoalesces(t *testing.T) {
	st := newStore(stripes, 16, 1<<20)
	_, f, lead := st.lookup(99)
	if !lead {
		t.Fatal("the first lookup of a fresh key did not lead its flight")
	}
	const waiters = 31
	bodies := make([][]byte, waiters)
	var joined, done sync.WaitGroup
	for i := 0; i < waiters; i++ {
		joined.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			_, g, lead := st.lookup(99)
			joined.Done()
			if g != f || lead {
				t.Errorf("lookup %d did not join the open flight", i)
				return
			}
			body, err := g.wait(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			bodies[i] = body
		}()
	}
	joined.Wait()
	if n := st.stats().flights; n != 1 {
		t.Fatalf("%d flights open for one key, want 1", n)
	}
	st.finish(99, f, []byte("shared"), nil)
	done.Wait()
	for i, b := range bodies {
		if string(b) != "shared" {
			t.Errorf("waiter %d got %q", i, b)
		}
	}
	if n := st.stats().flights; n != 0 {
		t.Errorf("flight leaked: %d in flight", n)
	}
	if body, f, _ := st.lookup(99); f != nil || string(body) != "shared" {
		t.Errorf("lookup after the flight = %q (flight %v), want a cache hit", body, f != nil)
	}
}

// TestFlightGroupSequentialReruns: the store keeps nothing of a retired
// flight, so once a flight has finished, a key whose body is not cached
// — here a store whose cache holds no entries — leads a new flight and
// is computed again. A finished flight left in the table would instead
// be joined by the next lookup, and its waiter would never be woken.
func TestFlightGroupSequentialReruns(t *testing.T) {
	st := newStore(stripes, 0, 1<<20)
	for i := 0; i < 3; i++ {
		body, f, lead := st.lookup(5)
		if f == nil || !lead {
			t.Fatalf("iteration %d: lookup = %q (flight %v, lead %v), want a new flight to lead",
				i, body, f != nil, lead)
		}
		st.finish(5, f, []byte("x"), nil)
		if s := st.stats(); s.flights != 0 || s.entries != 0 {
			t.Fatalf("iteration %d: %d flights, %d entries after finish, want 0 and 0", i, s.flights, s.entries)
		}
	}
}

// TestStoreWaiterCancellation: a waiter abandoning the flight gets its
// own context error; the flight stays open, and a later waiter still
// gets the leader's body.
func TestStoreWaiterCancellation(t *testing.T) {
	st := newStore(stripes, 16, 1<<20)
	_, f, _ := st.lookup(1)
	_, g, _ := st.lookup(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v", err)
	}
	if _, h, lead := st.lookup(1); h != f || lead {
		t.Fatal("a lookup after the abandoned wait did not join the open flight")
	}
	st.finish(1, f, []byte("late"), nil)
	if body, err := g.wait(context.Background()); err != nil || string(body) != "late" {
		t.Errorf("flight outcome corrupted by waiter cancellation: %q, %v", body, err)
	}
}

// TestStoreErrorPropagation: a failing flight hands the same error to
// every waiter and is not cached, so the next lookup leads again.
func TestStoreErrorPropagation(t *testing.T) {
	st := newStore(stripes, 16, 1<<20)
	boom := errors.New("boom")
	_, f, _ := st.lookup(2)
	_, g, _ := st.lookup(2)
	st.finish(2, f, nil, boom)
	if _, err := g.wait(context.Background()); !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want %v", err, boom)
	}
	if s := st.stats(); s.flights != 0 || s.entries != 0 {
		t.Errorf("failed flight leaked or was cached: %d flights, %d entries", s.flights, s.entries)
	}
	if _, _, lead := st.lookup(2); !lead {
		t.Error("the lookup after a failed flight did not lead a new one")
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

// TestEachKeyComputedOnce races 4 concurrent identical requests on a
// fresh key, 2,000 times per POST endpoint, with an instant
// computation: each key must be computed exactly once. A request that
// missed the cache just before the leader cached its body, then found
// no flight just after the leader retired it, would compute the key a
// second time.
func TestEachKeyComputedOnce(t *testing.T) {
	const rounds, clients = 2000, 4
	for _, tc := range []struct {
		path, computes string
		body           func(i int) string
	}{
		{"/v1/eval", "eval_computes_total", func(i int) string {
			return fmt.Sprintf(`{"machine":"gtx580","intensity":%d.5}`, i+1)
		}},
		{"/v1/evalbatch", "evalbatch_computes_total", func(i int) string {
			return fmt.Sprintf(`{"machine":"gtx580","intensities":[1,%d.5]}`, i+1)
		}},
		{"/v1/campaign", "engine_runs_total", func(i int) string {
			return strings.Replace(smallCampaign, `"seed":7`, fmt.Sprintf(`"seed":%d`, i+1), 1)
		}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			s := New(Config{})
			t.Cleanup(s.Close)
			s.engine = (&stubEngine{}).fn
			h := s.Handler()
			for i := 0; i < rounds; i++ {
				body := tc.body(i)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						w := httptest.NewRecorder()
						h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
						if w.Code != http.StatusOK {
							t.Errorf("round %d: status %d: %s", i, w.Code, w.Body.String())
						}
					}()
				}
				close(start)
				wg.Wait()
			}
			if got := s.reg.Counter(tc.computes).Value(); got != rounds {
				t.Errorf("%s = %d after %d rounds, want %d: a key was computed more than once",
					tc.computes, got, rounds, rounds)
			}
		})
	}
}

// TestShardedServerMatchesSingleLockServer runs identical deterministic
// traffic against a server whose store is swapped for one stripe (a
// single-lock store) and a default 16-stripe server, and requires
// byte-identical response bodies and identical end-state counters.
// Striping must be invisible to everything but lock contention.
func TestShardedServerMatchesSingleLockServer(t *testing.T) {
	single := New(Config{})
	single.store = newStore(1, single.cfg.CacheEntries, single.cfg.CacheBytes)
	sharded := New(Config{})
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
	if s1, s16 := single.store.stats(), sharded.store.stats(); s1 != s16 {
		t.Fatalf("store stats diverge: single %+v vs sharded %+v", s1, s16)
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
// universe, and afterwards the counters must balance EXACTLY — the
// per-stripe accounting sums to the same invariants the single-lock
// cache guaranteed:
//
//	hits + misses          == successful requests      (one lookup each)
//	misses                 == eval computes + batch computes
//	                          + engine runs + coalesced flights
//	store.stats()          == the handler-side hit/miss counters
//	entries                == distinct request keys; no evictions
func TestShardedServerContentionExactCounters(t *testing.T) {
	s := New(Config{})
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
		t.Fatalf("hits %d + misses %d != requests %d: a request skipped or double-counted its lookup", hits, misses, requests)
	}
	computes := s.reg.Counter("eval_computes_total").Value() +
		s.reg.Counter("evalbatch_computes_total").Value() +
		s.reg.Counter("engine_runs_total").Value() +
		s.reg.Counter("coalesced_total").Value()
	if misses != computes {
		t.Fatalf("misses %d != computes+coalesced %d: a miss vanished or a compute ran without a miss", misses, computes)
	}
	cs := s.store.stats()
	if cs.Hits != hits || cs.Misses != misses {
		t.Fatalf("cache-internal counters %+v disagree with handler counters (hits %d, misses %d)", cs, hits, misses)
	}
	if cs.Evictions != 0 {
		t.Fatalf("no-eviction universe evicted: %+v", cs)
	}
	if got := cs.entries; got != uniqueKeys {
		t.Fatalf("cache holds %d entries, want exactly %d distinct request keys", got, uniqueKeys)
	}
}

// TestWarmEvalAllocations pins the warm /v1/eval direct path at ≤ 8
// allocations. The measured path is 2: the one []string holding the
// four header values, and the one string holding the request hash and
// the body length (writeCached). The pin leaves headroom for net/http
// drift, not for regressions in this package.
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
// pooled batchScratch and the cache's slab reuses its slots, so a miss
// allocates little beyond the cached body and its flight (measured 4;
// the pin leaves 4 of headroom).
func TestBatch32ColdAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops entries under the race detector")
	}
	s := New(Config{})
	t.Cleanup(s.Close)
	p := newDirectPoster(s.Handler(), "/v1/evalbatch", "")
	bodies := batch32ColdBodies()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p.body = bodies[i%len(bodies)]
		i++
		p.post(t)
	})
	if allocs > 8 {
		t.Fatalf("cold 32-point /v1/evalbatch allocates %.1f per request, want ≤ 8", allocs)
	}
}
