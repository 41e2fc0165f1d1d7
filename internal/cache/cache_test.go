package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/stats"
)

// tiny returns a 2-level hierarchy small enough to force evictions:
// L1 = 4 lines of 64 B (2 sets × 2 ways), L2 = 16 lines (4 sets × 4 ways).
func tiny(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New([]machine.CacheLevel{
		{Name: "L1", Size: 256, LineSize: 64, Assoc: 2},
		{Name: "L2", Size: 1024, LineSize: 64, Assoc: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	bad := []machine.CacheLevel{{Name: "L1", Size: 0, LineSize: 64, Assoc: 2}}
	if _, err := New(bad); err == nil {
		t.Error("zero size accepted")
	}
	mixed := []machine.CacheLevel{
		{Name: "L1", Size: 256, LineSize: 64, Assoc: 2},
		{Name: "L2", Size: 1024, LineSize: 128, Assoc: 4},
	}
	if _, err := New(mixed); err == nil {
		t.Error("mixed line sizes accepted")
	}
	shrink := []machine.CacheLevel{
		{Name: "L1", Size: 1024, LineSize: 64, Assoc: 4},
		{Name: "L2", Size: 256, LineSize: 64, Assoc: 2},
	}
	if _, err := New(shrink); err == nil {
		t.Error("shrinking hierarchy accepted")
	}
	odd := []machine.CacheLevel{{Name: "L1", Size: 192, LineSize: 64, Assoc: 2}}
	if _, err := New(odd); err == nil {
		t.Error("lines not divisible by assoc accepted")
	}
}

func TestFromMachine(t *testing.T) {
	h, err := FromMachine(machine.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	if h.LineSize() != 128 {
		t.Errorf("GTX580 line size = %d", h.LineSize())
	}
	st := h.Stats()
	if len(st) != 2 || st[0].Name != "L1" || st[1].Name != "L2" {
		t.Errorf("stats = %+v", st)
	}
	noCache := machine.FermiTableII()
	if _, err := FromMachine(noCache); err == nil {
		t.Error("machine without caches accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny(t)
	h.Read(0, 8)
	st := h.Stats()
	if st[0].Misses != 1 || st[0].Hits != 0 {
		t.Fatalf("cold access: L1 = %+v", st[0])
	}
	if st[1].Misses != 1 {
		t.Fatalf("cold access should miss L2 too: %+v", st[1])
	}
	if h.DRAMReadBytes() != 64 {
		t.Errorf("DRAM read bytes = %d, want one line", h.DRAMReadBytes())
	}
	h.Read(8, 8) // same line
	st = h.Stats()
	if st[0].Hits != 1 {
		t.Errorf("second access should hit L1: %+v", st[0])
	}
	if st[0].BytesServed != 64 {
		t.Errorf("L1 bytes served = %d", st[0].BytesServed)
	}
	if h.DRAMReadBytes() != 64 {
		t.Error("hit should not touch DRAM")
	}
}

func TestAccessSpanningLines(t *testing.T) {
	h := tiny(t)
	// 100 bytes starting at 60 spans lines 0 and 1 and 2? 60..159 →
	// lines 0 (0–63), 1 (64–127), 2 (128–191): three line accesses.
	h.Read(60, 100)
	st := h.Stats()
	if st[0].Accesses != 3 {
		t.Errorf("spanning read accesses = %d, want 3", st[0].Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny(t)
	// L1 set 0 holds even lines (2 sets): lines 0, 2, 4 map to set 0.
	h.Read(0*64, 1)
	h.Read(2*64, 1)
	h.Read(4*64, 1) // evicts line 0 (LRU)
	h.Read(0*64, 1) // must miss L1 again, but hit L2
	st := h.Stats()
	if st[0].Misses != 4 {
		t.Errorf("L1 misses = %d, want 4", st[0].Misses)
	}
	if st[1].Hits != 1 {
		t.Errorf("L2 hits = %d, want 1 (the re-fetched line)", st[1].Hits)
	}
	// Recency update: touch line 2, then line 6; line 4 (not 2) evicts.
	h.Reset()
	h.Read(0*64, 1)
	h.Read(2*64, 1)
	h.Read(0*64, 1) // refresh 0
	h.Read(4*64, 1) // evicts 2
	h.Read(0*64, 1) // still resident
	st = h.Stats()
	if st[0].Hits != 2 {
		t.Errorf("hits after recency refresh = %d, want 2", st[0].Hits)
	}
}

func TestWriteBackToDRAM(t *testing.T) {
	// One-level hierarchy: dirty evictions land in DRAM.
	h, err := New([]machine.CacheLevel{{Name: "L1", Size: 128, LineSize: 64, Assoc: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(0, 8)  // dirty line 0
	h.Write(64, 8) // dirty line 1 (same set: 1 set × 2 ways)
	h.Read(128, 8) // evicts dirty line 0 → DRAM write
	if h.DRAMWriteBytes() != 64 {
		t.Errorf("DRAM write bytes = %d, want 64", h.DRAMWriteBytes())
	}
	if h.DRAMReadBytes() != 3*64 {
		t.Errorf("DRAM read bytes = %d, want 192", h.DRAMReadBytes())
	}
	if h.DRAMBytes() != 4*64 {
		t.Errorf("total DRAM bytes = %d", h.DRAMBytes())
	}
}

func TestWritebackCaughtByOuterLevel(t *testing.T) {
	h := tiny(t)
	// Dirty a line, force it out of L1; the writeback should land in L2,
	// not DRAM.
	h.Write(0*64, 1)
	h.Read(2*64, 1)
	h.Read(4*64, 1) // evicts dirty line 0 into L2
	if h.DRAMWriteBytes() != 0 {
		t.Errorf("writeback leaked to DRAM: %d bytes", h.DRAMWriteBytes())
	}
	st := h.Stats()
	if st[0].Writebacks != 1 {
		t.Errorf("L1 writebacks = %d, want 1", st[0].Writebacks)
	}
	// The line is still dirty in L2; flushing it out of L2 eventually
	// hits DRAM. Touch enough distinct lines mapping to its L2 set.
	// L2: 4 sets, so lines 0, 4, 8, ... map to set 0.
	for i := uint64(1); i <= 4; i++ {
		h.Read(i*4*64, 1)
	}
	if h.DRAMWriteBytes() == 0 {
		t.Error("dirty line never reached DRAM after L2 pressure")
	}
}

func TestConservationLaws(t *testing.T) {
	// Hits + Misses == Accesses at every level; L2 accesses ==
	// L1 misses + L1 writebacks.
	h := tiny(t)
	r := stats.NewRand(42)
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(1 << 14))
		if r.Intn(3) == 0 {
			h.Write(addr, 1+r.Intn(16))
		} else {
			h.Read(addr, 1+r.Intn(16))
		}
	}
	st := h.Stats()
	for _, s := range st {
		if s.Hits+s.Misses != s.Accesses {
			t.Errorf("%s: hits %d + misses %d != accesses %d", s.Name, s.Hits, s.Misses, s.Accesses)
		}
		if s.ReadHits+s.WriteHits != s.Hits {
			t.Errorf("%s: read+write hits != hits", s.Name)
		}
		if s.BytesServed != s.Hits*64 {
			t.Errorf("%s: bytes served %d != hits × line", s.Name, s.BytesServed)
		}
	}
	if st[1].Accesses != st[0].Misses+st[0].Writebacks {
		t.Errorf("L2 accesses %d != L1 misses %d + L1 writebacks %d",
			st[1].Accesses, st[0].Misses, st[0].Writebacks)
	}
	if h.DRAMReadBytes()%64 != 0 || h.DRAMWriteBytes()%64 != 0 {
		t.Error("DRAM traffic not line-aligned")
	}
}

func TestPropConservation(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		h, err := New([]machine.CacheLevel{
			{Name: "L1", Size: 512, LineSize: 64, Assoc: 2},
			{Name: "L2", Size: 2048, LineSize: 64, Assoc: 4},
		})
		if err != nil {
			return false
		}
		r := stats.NewRand(seed)
		for i := 0; i < int(n%2000)+10; i++ {
			addr := uint64(r.Intn(1 << 13))
			h.Access(addr, 1+r.Intn(64), r.Intn(2) == 0)
		}
		st := h.Stats()
		for _, s := range st {
			if s.Hits+s.Misses != s.Accesses {
				return false
			}
		}
		// Every L2 *demand* miss is one DRAM line read; writeback-
		// allocate misses overwrite whole lines and fetch nothing.
		return h.DRAMReadBytes() == st[1].DemandMisses*64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStreamingHasNoReuse(t *testing.T) {
	// A pure streaming read of distinct lines never hits: DRAM traffic
	// equals the touched footprint.
	h := tiny(t)
	const lines = 1000
	for i := 0; i < lines; i++ {
		h.Read(uint64(i)*64, 64)
	}
	st := h.Stats()
	if st[0].Hits != 0 || st[1].Hits != 0 {
		t.Errorf("streaming should never hit: %+v", st)
	}
	if h.DRAMReadBytes() != lines*64 {
		t.Errorf("DRAM bytes = %d, want %d", h.DRAMReadBytes(), lines*64)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set that fits in L1 hits 100% after the first sweep.
	h := tiny(t) // L1 = 4 lines
	sweep := func() {
		for i := 0; i < 4; i++ {
			h.Read(uint64(i)*64, 64)
		}
	}
	sweep() // cold
	before := h.Stats()[0]
	sweep() // warm
	after := h.Stats()[0]
	if after.Hits-before.Hits != 4 {
		t.Errorf("warm sweep hits = %d, want 4", after.Hits-before.Hits)
	}
	if h.DRAMReadBytes() != 4*64 {
		t.Errorf("DRAM traffic grew on warm sweep: %d", h.DRAMReadBytes())
	}
}

func TestReset(t *testing.T) {
	h := tiny(t)
	h.Read(0, 512)
	h.Reset()
	st := h.Stats()
	if st[0].Accesses != 0 || st[1].Accesses != 0 || h.DRAMBytes() != 0 {
		t.Error("Reset did not clear counters")
	}
	h.Read(0, 8)
	if h.Stats()[0].Misses != 1 {
		t.Error("Reset did not clear contents")
	}
}

func TestZeroSizeAccessIgnored(t *testing.T) {
	h := tiny(t)
	h.Read(0, 0)
	h.Access(0, -5, true)
	if h.Stats()[0].Accesses != 0 {
		t.Error("zero/negative size should be ignored")
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := FromMachine(machine.CoreI7950())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(addrs[i%len(addrs)], 8)
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// A streaming read with the next-line prefetcher: after the first
	// miss of each pair, the following line is already resident, so
	// demand misses roughly halve... with a strictly sequential stream
	// every demand miss prefetches the next line, which then hits, so
	// the outer level's demand misses drop to ~half the lines.
	mk := func(pf bool) (*Hierarchy, uint64) {
		h, err := New([]machine.CacheLevel{
			{Name: "L1", Size: 512, LineSize: 64, Assoc: 2},
			{Name: "L2", Size: 4096, LineSize: 64, Assoc: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.EnablePrefetch(pf)
		const lines = 2000
		for i := 0; i < lines; i++ {
			h.Read(uint64(i)*64, 64)
		}
		return h, h.Stats()[1].DemandMisses
	}
	_, missesOff := mk(false)
	hOn, missesOn := mk(true)
	if missesOn >= missesOff/2+64 {
		t.Errorf("prefetcher barely helped: %d vs %d demand misses", missesOn, missesOff)
	}
	if hOn.PrefetchIssued() == 0 {
		t.Error("no prefetches issued")
	}
	// Total DRAM traffic is not reduced (every line still fetched once,
	// modulo the one-past-the-end line).
	if hOn.DRAMReadBytes() < 2000*64 {
		t.Errorf("prefetching cannot skip compulsory traffic: %d", hOn.DRAMReadBytes())
	}
}

func TestPrefetcherNeutralOnRandomAccess(t *testing.T) {
	// Random far-apart accesses: prefetched lines are useless and the
	// prefetcher inflates DRAM traffic without cutting misses much.
	mk := func(pf bool) (*Hierarchy, uint64, uint64) {
		h, err := New([]machine.CacheLevel{
			{Name: "L1", Size: 512, LineSize: 64, Assoc: 2},
			{Name: "L2", Size: 4096, LineSize: 64, Assoc: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.EnablePrefetch(pf)
		r := stats.NewRand(9)
		for i := 0; i < 4000; i++ {
			// Stride of at least 4 lines so next-line never helps.
			h.Read(uint64(r.Intn(1<<20))*256, 8)
		}
		return h, h.Stats()[1].DemandMisses, h.DRAMReadBytes()
	}
	_, missOff, trafficOff := mk(false)
	_, missOn, trafficOn := mk(true)
	if float64(missOn) < float64(missOff)*0.95 {
		t.Errorf("random misses should not improve: %d vs %d", missOn, missOff)
	}
	if trafficOn <= trafficOff {
		t.Error("useless prefetches must inflate DRAM traffic")
	}
}

func TestPrefetchWritesDoNotPrefetch(t *testing.T) {
	h, err := New([]machine.CacheLevel{{Name: "L1", Size: 512, LineSize: 64, Assoc: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch(true)
	for i := 0; i < 100; i++ {
		h.Write(uint64(i)*64, 64)
	}
	if h.PrefetchIssued() != 0 {
		t.Errorf("write misses should not prefetch: %d issued", h.PrefetchIssued())
	}
}

func TestPrefetchResetClears(t *testing.T) {
	h, err := New([]machine.CacheLevel{{Name: "L1", Size: 512, LineSize: 64, Assoc: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch(true)
	for i := 0; i < 64; i++ {
		h.Read(uint64(i)*64, 8)
	}
	if h.PrefetchIssued() == 0 {
		t.Fatal("setup: no prefetches")
	}
	h.Reset()
	if h.PrefetchIssued() != 0 || h.DRAMBytes() != 0 {
		t.Error("Reset did not clear prefetch state")
	}
}
