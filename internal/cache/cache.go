// Package cache implements a multi-level set-associative cache
// simulator with LRU replacement and write-back/write-allocate
// semantics. It stands in for the hardware performance counters the
// paper reads (§V-C): per-level byte traffic ("bytes read from the L1
// and L2 caches") and DRAM traffic ("bytes read from the DRAM using
// hardware counters (L2 read misses)").
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/machine"
)

// LevelStats are the per-level counters.
type LevelStats struct {
	// Name is the level label ("L1", ...).
	Name string
	// Accesses is the number of line requests that reached this level.
	Accesses uint64
	// Hits and Misses partition Accesses.
	Hits uint64
	// Misses counts lookups that did not find the line.
	Misses uint64
	// DemandMisses are misses from program reads/writes, excluding
	// misses triggered by inner-level writebacks (which overwrite the
	// whole line and fetch nothing). At the outer level these are the
	// paper's "L2 read misses" counter.
	DemandMisses uint64
	// ReadHits and WriteHits split Hits by request type.
	ReadHits uint64
	// WriteHits counts hits from store requests.
	WriteHits uint64
	// BytesServed is Hits times the line size: the traffic this level
	// supplied to the level above (the paper's "bytes read from" it).
	BytesServed uint64
	// Writebacks counts dirty lines evicted from this level.
	Writebacks uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

type level struct {
	cfg   machine.CacheLevel
	sets  uint64
	ways  int
	data  []line // sets × ways, row-major
	stats LevelStats
	// setMask replaces the per-access modulo when sets is a power of
	// two (pow2Sets), the common geometry.
	setMask  uint64
	pow2Sets bool
}

func newLevel(cfg machine.CacheLevel) *level {
	lines := uint64(cfg.Size) / uint64(cfg.LineSize)
	sets := lines / uint64(cfg.Assoc)
	l := &level{
		cfg:  cfg,
		sets: sets,
		ways: cfg.Assoc,
		data: make([]line, lines),
	}
	if sets&(sets-1) == 0 {
		l.pow2Sets = true
		l.setMask = sets - 1
	}
	l.stats.Name = cfg.Name
	return l
}

// setIndex maps a line address to its set, by mask when the set count
// is a power of two and by modulo otherwise — identical results, the
// mask just skips the hardware divide on the dominant geometry.
func (l *level) setIndex(lineAddr uint64) uint64 {
	if l.pow2Sets {
		return lineAddr & l.setMask
	}
	return lineAddr % l.sets
}

// access looks up lineAddr (already shifted to line granularity).
// On a miss the line is installed (write-allocate); the return values
// report whether it hit and whether a dirty victim was evicted.
func (l *level) access(lineAddr uint64, write, demand bool, tick uint64) (hit bool, evicted bool, victim uint64) {
	set := l.setIndex(lineAddr)
	base := int(set) * l.ways
	ways := l.data[base : base+l.ways]
	l.stats.Accesses++
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			l.hitWay(&ways[i], write, tick)
			return true, false, 0
		}
	}
	l.stats.Misses++
	if demand {
		l.stats.DemandMisses++
	}
	// Choose victim: first invalid way, else LRU.
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

// hitWay applies the counter and state updates of a hit on way w.
func (l *level) hitWay(w *line, write bool, tick uint64) {
	l.stats.Hits++
	l.stats.BytesServed += uint64(l.cfg.LineSize)
	if write {
		l.stats.WriteHits++
		w.dirty = true
	} else {
		l.stats.ReadHits++
	}
	w.used = tick
}

// Hierarchy is a stack of cache levels over DRAM.
type Hierarchy struct {
	levels   []*level
	lineSize uint64
	tick     uint64

	// lineShift is log2(lineSize) when the line size is a power of two,
	// else -1; Access then splits requests by shift instead of divide.
	lineShift int

	dramReadLines  uint64
	dramWriteLines uint64

	// prefetch enables a next-line prefetcher at the outer level: a
	// demand read miss also fetches the following line (counted as
	// prefetch traffic, installed without touching hit/miss counters).
	prefetch       bool
	prefetchIssued uint64

	// Bulk-replay scratch (see segment.go), kept on the hierarchy so
	// AccessSegment/ReplaySegments allocate nothing in steady state.
	// All of it is transient within one call; none survives into the
	// observable simulation state.
	segScratch []Segment
	segLA      []uint64
	segWays    []segWay
}

// New builds a hierarchy from innermost (L1) to outermost. All levels
// must share one line size (the reproduction's platforms do), and each
// level must be at least as large as the previous one.
func New(levels []machine.CacheLevel) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, errors.New("cache: need at least one level")
	}
	h := &Hierarchy{lineSize: uint64(levels[0].LineSize), lineShift: -1}
	if h.lineSize&(h.lineSize-1) == 0 {
		h.lineShift = bits.TrailingZeros64(h.lineSize)
	}
	for i, cfg := range levels {
		if cfg.Size <= 0 || cfg.LineSize <= 0 || cfg.Assoc <= 0 {
			return nil, fmt.Errorf("cache: level %d (%s) has non-positive geometry", i, cfg.Name)
		}
		if uint64(cfg.LineSize) != h.lineSize {
			return nil, fmt.Errorf("cache: level %d (%s) line size %d differs from %d", i, cfg.Name, cfg.LineSize, h.lineSize)
		}
		lines := cfg.Size / int64(cfg.LineSize)
		if lines%int64(cfg.Assoc) != 0 {
			return nil, fmt.Errorf("cache: level %d (%s) lines %d not divisible by associativity %d", i, cfg.Name, lines, cfg.Assoc)
		}
		if i > 0 && cfg.Size < levels[i-1].Size {
			return nil, fmt.Errorf("cache: level %d (%s) smaller than inner level", i, cfg.Name)
		}
		h.levels = append(h.levels, newLevel(cfg))
	}
	return h, nil
}

// FromMachine builds the hierarchy of machine m. The machine must have
// at least one cache level configured.
func FromMachine(m *machine.Machine) (*Hierarchy, error) {
	if len(m.Caches) == 0 {
		return nil, fmt.Errorf("cache: machine %s has no cache levels", m.Name)
	}
	return New(m.Caches)
}

// LineSize returns the uniform cache line size in bytes.
func (h *Hierarchy) LineSize() int { return int(h.lineSize) }

// Read simulates a read of size bytes at addr.
func (h *Hierarchy) Read(addr uint64, size int) { h.Access(addr, size, false) }

// Write simulates a write of size bytes at addr.
func (h *Hierarchy) Write(addr uint64, size int) { h.Access(addr, size, true) }

// Access simulates a read or write of size bytes at addr, splitting the
// request into line-granularity lookups.
func (h *Hierarchy) Access(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	var first, last uint64
	if h.lineShift >= 0 {
		first = addr >> h.lineShift
		last = (addr + uint64(size) - 1) >> h.lineShift
	} else {
		first = addr / h.lineSize
		last = (addr + uint64(size) - 1) / h.lineSize
	}
	for la := first; la <= last; la++ {
		h.tick++
		h.accessLine(la, write)
	}
}

func (h *Hierarchy) accessLine(lineAddr uint64, write bool) {
	for i, l := range h.levels {
		hit, evicted, victim := l.access(lineAddr, write, true, h.tick)
		if evicted {
			h.writeback(i+1, victim)
		}
		if hit {
			return
		}
	}
	// Missed everywhere: line comes from DRAM (and was installed at
	// every level on the way down).
	h.dramReadLines++
	if h.prefetch && !write {
		h.prefetchLine(lineAddr + 1)
	}
}

// EnablePrefetch turns the outer-level next-line prefetcher on or off.
func (h *Hierarchy) EnablePrefetch(on bool) { h.prefetch = on }

// PrefetchIssued reports how many prefetch fetches went to DRAM.
func (h *Hierarchy) PrefetchIssued() uint64 { return h.prefetchIssued }

// prefetchLine installs lineAddr in the outer level if absent, charging
// the DRAM fetch to the prefetcher rather than to demand traffic
// statistics (but it is still DRAM traffic).
func (h *Hierarchy) prefetchLine(lineAddr uint64) {
	outer := h.levels[len(h.levels)-1]
	// Probe without disturbing statistics: a silent lookup.
	set := outer.setIndex(lineAddr)
	base := int(set) * outer.ways
	ways := outer.data[base : base+outer.ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			return // already resident
		}
	}
	// Install manually: a prefetch is not an access, so it must not
	// perturb the hit/miss counters.
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
	// Install with an older timestamp than demand lines so useless
	// prefetches are evicted first.
	ts := uint64(0)
	if h.tick > 0 {
		ts = h.tick - 1
	}
	ways[vi] = line{tag: lineAddr, valid: true, used: ts}
	h.prefetchIssued++
	h.dramReadLines++
}

// writeback pushes a dirty victim from level idx-1 into level idx (or
// DRAM if past the last level).
func (h *Hierarchy) writeback(idx int, lineAddr uint64) {
	if idx >= len(h.levels) {
		h.dramWriteLines++
		return
	}
	// A miss write-allocates at this level without a read from below:
	// a full writeback line overwrites the old contents, so no DRAM
	// read is charged.
	_, evicted, victim := h.levels[idx].access(lineAddr, true, false, h.tick)
	if evicted {
		h.writeback(idx+1, victim)
	}
}

// NumLevels returns the number of cache levels in the hierarchy.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns a copy of one level's counters (0 = innermost),
// letting callers read per-level statistics without the slice
// allocation of Stats.
func (h *Hierarchy) Level(i int) LevelStats { return h.levels[i].stats }

// Stats returns a copy of the per-level counters, innermost first.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.stats
	}
	return out
}

// DRAMReadBytes is the traffic fetched from DRAM (outer-level read
// misses times the line size) — the paper's Q estimator.
func (h *Hierarchy) DRAMReadBytes() uint64 { return h.dramReadLines * h.lineSize }

// DRAMWriteBytes is the write-back traffic to DRAM.
func (h *Hierarchy) DRAMWriteBytes() uint64 { return h.dramWriteLines * h.lineSize }

// DRAMBytes is total DRAM traffic in both directions.
func (h *Hierarchy) DRAMBytes() uint64 { return h.DRAMReadBytes() + h.DRAMWriteBytes() }

// Reset clears all cache contents and counters.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		clear(l.data)
		l.stats = LevelStats{Name: l.cfg.Name}
	}
	h.tick = 0
	h.dramReadLines = 0
	h.dramWriteLines = 0
	h.prefetchIssued = 0
}
