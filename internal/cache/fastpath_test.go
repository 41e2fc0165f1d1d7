package cache

import (
	"testing"

	"repro/internal/machine"
)

// Hierarchy splits requests into lines by shift and picks sets by mask
// whenever the geometry is a power of two. That must not change a single
// counter: this file keeps a reference model that divides and takes the
// modulo everywhere, drives both with identical workloads, and compares
// every statistic exactly.

// refLevel is the reference level: modulo set indexing and a linear way
// scan on every access.
type refLevel struct {
	cfg   machine.CacheLevel
	sets  uint64
	ways  int
	data  []line
	stats LevelStats
}

func newRefLevel(cfg machine.CacheLevel) *refLevel {
	lines := uint64(cfg.Size) / uint64(cfg.LineSize)
	sets := lines / uint64(cfg.Assoc)
	l := &refLevel{cfg: cfg, sets: sets, ways: cfg.Assoc, data: make([]line, lines)}
	l.stats.Name = cfg.Name
	return l
}

func (l *refLevel) access(lineAddr uint64, write, demand bool, tick uint64) (hit bool, evicted bool, victim uint64) {
	set := lineAddr % l.sets
	base := int(set) * l.ways
	ways := l.data[base : base+l.ways]
	l.stats.Accesses++
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			l.stats.Hits++
			l.stats.BytesServed += uint64(l.cfg.LineSize)
			if write {
				l.stats.WriteHits++
				ways[i].dirty = true
			} else {
				l.stats.ReadHits++
			}
			ways[i].used = tick
			return true, false, 0
		}
	}
	l.stats.Misses++
	if demand {
		l.stats.DemandMisses++
	}
	vi := -1
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].used < ways[vi].used {
				vi = i
			}
		}
		if ways[vi].dirty {
			evicted = true
			victim = ways[vi].tag
			l.stats.Writebacks++
		}
	}
	ways[vi] = line{tag: lineAddr, valid: true, dirty: write, used: tick}
	return false, evicted, victim
}

// refHierarchy is the reference hierarchy: divide and modulo address
// math throughout.
type refHierarchy struct {
	levels         []*refLevel
	lineSize       uint64
	tick           uint64
	dramReadLines  uint64
	dramWriteLines uint64
	prefetch       bool
	prefetchIssued uint64
}

func newRefHierarchy(levels []machine.CacheLevel) *refHierarchy {
	h := &refHierarchy{lineSize: uint64(levels[0].LineSize)}
	for _, cfg := range levels {
		h.levels = append(h.levels, newRefLevel(cfg))
	}
	return h
}

func (h *refHierarchy) Access(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	first := addr / h.lineSize
	last := (addr + uint64(size) - 1) / h.lineSize
	for la := first; la <= last; la++ {
		h.tick++
		h.accessLine(la, write)
	}
}

func (h *refHierarchy) accessLine(lineAddr uint64, write bool) {
	for i, l := range h.levels {
		hit, evicted, victim := l.access(lineAddr, write, true, h.tick)
		if evicted {
			h.writeback(i+1, victim)
		}
		if hit {
			return
		}
	}
	h.dramReadLines++
	if h.prefetch && !write {
		h.prefetchLine(lineAddr + 1)
	}
}

func (h *refHierarchy) prefetchLine(lineAddr uint64) {
	outer := h.levels[len(h.levels)-1]
	set := lineAddr % outer.sets
	base := int(set) * outer.ways
	ways := outer.data[base : base+outer.ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			return
		}
	}
	vi := -1
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].used < ways[vi].used {
				vi = i
			}
		}
		if ways[vi].dirty {
			h.dramWriteLines++
			outer.stats.Writebacks++
		}
	}
	ts := uint64(0)
	if h.tick > 0 {
		ts = h.tick - 1
	}
	ways[vi] = line{tag: lineAddr, valid: true, used: ts}
	h.prefetchIssued++
	h.dramReadLines++
}

func (h *refHierarchy) writeback(idx int, lineAddr uint64) {
	if idx >= len(h.levels) {
		h.dramWriteLines++
		return
	}
	hit, evicted, victim := h.levels[idx].access(lineAddr, true, false, h.tick)
	if evicted {
		h.writeback(idx+1, victim)
	}
	_ = hit
}

func (h *refHierarchy) Reset() {
	for i, l := range h.levels {
		h.levels[i] = newRefLevel(l.cfg)
	}
	h.tick = 0
	h.dramReadLines = 0
	h.dramWriteLines = 0
	h.prefetchIssued = 0
}

func (h *refHierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.stats
	}
	return out
}

// pair drives the optimized hierarchy and the reference model in
// lockstep and compares every observable counter.
type pair struct {
	t   *testing.T
	opt *Hierarchy
	ref *refHierarchy
}

func newPair(t *testing.T, levels []machine.CacheLevel) *pair {
	t.Helper()
	opt, err := New(levels)
	if err != nil {
		t.Fatal(err)
	}
	return &pair{t: t, opt: opt, ref: newRefHierarchy(levels)}
}

func (p *pair) access(addr uint64, size int, write bool) {
	p.opt.Access(addr, size, write)
	p.ref.Access(addr, size, write)
}

func (p *pair) prefetch(on bool) {
	p.opt.EnablePrefetch(on)
	p.ref.prefetch = on
}

func (p *pair) reset() {
	p.opt.Reset()
	p.ref.Reset()
}

func (p *pair) check(phase string) {
	p.t.Helper()
	got, want := p.opt.Stats(), p.ref.Stats()
	for i := range want {
		if got[i] != want[i] {
			p.t.Errorf("%s: level %d stats diverged:\n got  %+v\n want %+v", phase, i, got[i], want[i])
		}
	}
	if g, w := p.opt.DRAMReadBytes(), p.ref.dramReadLines*p.ref.lineSize; g != w {
		p.t.Errorf("%s: DRAMReadBytes = %d, want %d", phase, g, w)
	}
	if g, w := p.opt.DRAMWriteBytes(), p.ref.dramWriteLines*p.ref.lineSize; g != w {
		p.t.Errorf("%s: DRAMWriteBytes = %d, want %d", phase, g, w)
	}
	if g, w := p.opt.PrefetchIssued(), p.ref.prefetchIssued; g != w {
		p.t.Errorf("%s: PrefetchIssued = %d, want %d", phase, g, w)
	}
}

func twoLevels() []machine.CacheLevel {
	return []machine.CacheLevel{
		{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8},
		{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8},
	}
}

// nonPow2Levels exercises the modulo/divide fallbacks: 192 sets at L1
// and a 96-byte line are not powers of two.
func nonPow2Levels() []machine.CacheLevel {
	return []machine.CacheLevel{
		{Name: "L1", Size: 96 * 192 * 4, LineSize: 96, Assoc: 4},
		{Name: "L2", Size: 96 * 512 * 8, LineSize: 96, Assoc: 8},
	}
}

// lcg is a deterministic address scrambler for the random phases.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// drive runs a mixed workload through the pair, checking after every
// phase: sub-line streaming, an SoA interleave, strides that cycle sets,
// random traffic with writes (evictions, writebacks), prefetching, and a
// mid-run Reset.
func drive(p *pair) {
	// Sub-line streaming reads: repeated hits on the same line.
	for i := uint64(0); i < 6000; i++ {
		p.access(i*4, 4, false)
	}
	p.check("stream")

	// SoA interleave: four parallel arrays, read/read/read/write per
	// record, the FMM replay's access shape.
	const mib = 1 << 20
	for r := uint64(0); r < 3000; r++ {
		p.access(0*mib+r*8, 8, false)
		p.access(1*mib+r*8, 8, false)
		p.access(2*mib+r*4, 4, false)
		p.access(3*mib+r*8, 8, true)
	}
	p.check("soa")

	// Strided reads at line granularity, with a stride wide enough to
	// cycle sets.
	for i := uint64(0); i < 4000; i++ {
		p.access((i*192)%(1<<22), 16, false)
	}
	p.check("strided")

	// Random read/write mix over a footprint larger than L2: misses,
	// LRU evictions and dirty writebacks.
	x := uint64(12345)
	for i := 0; i < 8000; i++ {
		x = lcg(x)
		addr := x % (4 << 20)
		p.access(addr, 8, i%3 == 0)
	}
	p.check("random")

	// Prefetching on: sequential read misses issue next-line fetches.
	p.prefetch(true)
	for i := uint64(0); i < 3000; i++ {
		p.access(16*mib+i*64, 8, false)
	}
	p.check("prefetch")
	p.prefetch(false)

	// Reset mid-run, then stream again from a cold hierarchy.
	p.reset()
	for i := uint64(0); i < 4000; i++ {
		p.access(i*4, 4, i%5 == 4)
	}
	p.check("post-reset")
}

func TestHierarchyMatchesReference(t *testing.T) {
	drive(newPair(t, twoLevels()))
}

func TestHierarchyMatchesReferenceNonPow2(t *testing.T) {
	drive(newPair(t, nonPow2Levels()))
}

func TestHierarchyMatchesReferenceSingleLevel(t *testing.T) {
	// A single level makes the prefetcher's outer level the innermost
	// level too, so a prefetch install can evict a line just read.
	drive(newPair(t, []machine.CacheLevel{
		{Name: "L1", Size: 16 << 10, LineSize: 64, Assoc: 4},
	}))
}
