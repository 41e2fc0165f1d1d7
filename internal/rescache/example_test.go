package rescache_test

import (
	"fmt"

	"repro/internal/rescache"
)

// ExampleCache shows the result cache standing alone: a miss, a Put of
// the computed body, then a hit on the same canonical key.
func ExampleCache() {
	// At most 64 entries and 1 MiB of bodies.
	cache := rescache.New(64, 1<<20)

	// Keys are canonical request hashes: the key POST /v1/eval caches
	// this request under.
	key := rescache.EvalKey("gtx580", "double", 1e9, 4)
	fmt.Printf("key=%016x\n", key)
	if _, ok := cache.Get(key); !ok {
		cache.Put(key, []byte(`{"time":3.01e-05}`+"\n"))
	}
	body, ok := cache.Get(key)
	fmt.Printf("hit=%v body=%q\n", ok, body)

	stats := cache.Stats()
	fmt.Printf("entries=%d hits=%d misses=%d\n", cache.Len(), stats.Hits, stats.Misses)
	// Output:
	// key=fc555dea4fbc9888
	// hit=true body="{\"time\":3.01e-05}\n"
	// entries=1 hits=1 misses=1
}
