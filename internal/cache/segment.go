// Bulk segment replay: strided access runs are simulated one cache
// line at a time instead of one word at a time. Every counter, line
// state, and LRU timestamp is exactly what the word-at-a-time walk
// would produce; the replay falls back to the exact scalar walk
// whenever that equivalence cannot be proven locally (line-straddling
// elements, a line evicted within its own chunk).

package cache

// Segment describes a strided run of equally-sized memory accesses:
// element i covers bytes [Base+i·Stride, Base+i·Stride+Size). A Segment
// is the bulk-replay unit of the simulator — one descriptor stands for
// Count individual Read/Write calls.
type Segment struct {
	// Base is the byte address of element 0.
	Base uint64
	// Stride is the byte distance between consecutive elements. A zero
	// stride replays the same element Count times.
	Stride uint64
	// Count is the number of elements.
	Count int
	// Size is the bytes accessed per element. Elements with Size <= 0
	// access nothing (matching Access's no-op on non-positive sizes).
	Size int
	// Write selects stores rather than loads.
	Write bool
}

// AccessSegment replays one segment through the hierarchy. It is
// exactly equivalent — every per-level counter, DRAM line count,
// eviction decision, and LRU timestamp — to
//
//	for i := 0; i < s.Count; i++ {
//		h.Access(s.Base+uint64(i)*s.Stride, s.Size, s.Write)
//	}
//
// but coalesces the word-granular walk into one genuine lookup per
// cache line touched: the remaining accesses to a line are guaranteed
// hits (a hit never evicts) and are applied as bulk counter updates.
func (h *Hierarchy) AccessSegment(s Segment) {
	segs := [1]Segment{s}
	h.ReplaySegments(segs[:], 1)
}

// ReplaySegments replays an element-interleaved group of segments,
// sweeps times over. It is exactly equivalent to
//
//	for sweep := 0; sweep < sweeps; sweep++ {
//		for i := 0; i < maxCount; i++ {
//			for _, s := range segs {
//				if i < s.Count {
//					h.Access(s.Base+uint64(i)*s.Stride, s.Size, s.Write)
//				}
//			}
//		}
//	}
//
// — the access order of a loop nest that walks several parallel arrays
// in lock step (a structure-of-arrays record read is one group of four
// segments). Each sweep is replayed in chunks: a run of rounds whose
// elements stay on one cache line per segment is resolved with a
// single genuine lookup per line, and the remaining accesses are
// bulk-applied as hits after verifying every line of the run survived
// the lookups (an install or prefetch in the same round can evict a
// neighbour's line; verification makes the bulk path exact, and
// failure falls back to the scalar walk).
func (h *Hierarchy) ReplaySegments(segs []Segment, sweeps int) {
	// Drop no-op segments (matching Access's early return).
	act := h.segScratch[:0]
	for _, s := range segs {
		if s.Count <= 0 || s.Size <= 0 {
			continue
		}
		act = append(act, s)
	}
	h.segScratch = act[:0]
	if len(act) == 0 {
		return
	}
	for s := 0; s < sweeps; s++ {
		h.replaySweep(act)
	}
}

// lineOf maps a byte address to its line address.
func (h *Hierarchy) lineOf(addr uint64) uint64 {
	if h.lineShift >= 0 {
		return addr >> h.lineShift
	}
	return addr / h.lineSize
}

// elemScalar replays one element exactly as Access would.
func (h *Hierarchy) elemScalar(addr uint64, size int, write bool) {
	first := h.lineOf(addr)
	last := h.lineOf(addr + uint64(size) - 1)
	for la := first; la <= last; la++ {
		h.tick++
		h.accessLine(la, write)
	}
}

// sameLineRun returns how many consecutive elements of s, starting at
// element i, lie entirely within element i's cache line (at most
// maxRun). It returns 0 when element i itself crosses a line boundary
// or wraps the address space — the caller then replays that round with
// the exact scalar walk.
func (h *Hierarchy) sameLineRun(s *Segment, i, maxRun int) int {
	start := s.Base + uint64(i)*s.Stride
	last := start + uint64(s.Size) - 1
	if last < start {
		return 0 // address-space wrap; Access treats this as a no-op
	}
	la := h.lineOf(start)
	if h.lineOf(last) != la {
		return 0
	}
	if s.Stride == 0 {
		return maxRun
	}
	// Closed form: element i+d stays on la while its last byte does,
	// i.e. while d·Stride <= room, the slack between element i's last
	// byte and the line end (la·lineSize never overflows — la came from
	// a division by lineSize). A non-power-of-two line size leaves a
	// partial top line whose nominal end lies past the address space, so
	// the slack is also capped at the bytes remaining before the wrap:
	// elements beyond it are scalar-walk no-ops, not run members.
	room := h.lineSize - 1 - (last - la*h.lineSize)
	if toWrap := ^uint64(0) - last; toWrap < room {
		room = toWrap
	}
	n := 1 + int(room/s.Stride)
	if n > maxRun {
		return maxRun
	}
	return n
}

// segWay pairs a chunk-resident innermost-level way with its request
// type, for the bulk hit application.
type segWay struct {
	w     *line
	write bool
}

// findInnerWay scans the innermost level's set for la and returns the
// holding way, or nil when the line is not resident there.
func (h *Hierarchy) findInnerWay(la uint64) *line {
	l := h.levels[0]
	set := l.setIndex(la)
	base := int(set) * l.ways
	ways := l.data[base : base+l.ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == la {
			return &ways[i]
		}
	}
	return nil
}

// replaySweep replays one interleaved pass over segs, chunking rounds
// whose elements stay line-stable into one genuine lookup per segment
// plus bulk hit updates.
func (h *Hierarchy) replaySweep(segs []Segment) {
	maxCount := 0
	for i := range segs {
		if segs[i].Count > maxCount {
			maxCount = segs[i].Count
		}
	}
	l0 := h.levels[0]
	i := 0
	for i < maxCount {
		// k = rounds this chunk can cover: bounded by the shortest
		// remaining active segment (the active set must not change
		// mid-chunk) and by each segment's same-line run.
		k := maxCount - i
		straddle := false
		for si := range segs {
			s := &segs[si]
			if i >= s.Count {
				continue
			}
			if rem := s.Count - i; rem < k {
				k = rem
			}
			r := h.sameLineRun(s, i, k)
			if r == 0 {
				straddle = true
				break
			}
			if r < k {
				k = r
			}
		}
		if straddle {
			// An element crosses a line boundary (or wraps): replay this
			// one round exactly, then retry chunking from the next round.
			for si := range segs {
				s := &segs[si]
				if i < s.Count {
					h.elemScalar(s.Base+uint64(i)*s.Stride, s.Size, s.Write)
				}
			}
			i++
			continue
		}
		// Round 0: one genuine line lookup per active segment, in
		// segment order, recording each line address for pass 2.
		la := h.segLA[:0]
		for si := range segs {
			s := &segs[si]
			if i >= s.Count {
				continue
			}
			addr := h.lineOf(s.Base + uint64(i)*s.Stride)
			la = append(la, addr)
			h.tick++
			h.accessLine(addr, s.Write)
		}
		h.segLA = la[:0]
		if k == 1 {
			i++
			continue
		}
		// Rounds 1..k-1 are hits iff every line survived round 0: a
		// later install (or a single-level prefetch) in the same round
		// can evict an earlier line from the innermost level. Verify
		// residency; hits never evict, so one check covers all rounds.
		ways := h.segWays[:0]
		resident := true
		ai := 0
		for si := range segs {
			s := &segs[si]
			if i >= s.Count {
				continue
			}
			w := h.findInnerWay(la[ai])
			if w == nil {
				resident = false
				break
			}
			ways = append(ways, segWay{w: w, write: s.Write})
			ai++
		}
		h.segWays = ways[:0]
		if !resident {
			// Exact fallback: the remaining rounds of the chunk replay
			// scalar (each element is single-line by construction, but
			// misses and evictions must evolve normally).
			for r := 1; r < k; r++ {
				for si := range segs {
					s := &segs[si]
					if i+r < s.Count {
						h.elemScalar(s.Base+uint64(i+r)*s.Stride, s.Size, s.Write)
					}
				}
			}
			i += k
			continue
		}
		// Bulk-apply rounds 1..k-1: per active segment, k-1 innermost
		// hits. Scalar ticks run round-major (round r, segment j ticks
		// at t0+(r-1)·m+j+1), so each line's final LRU stamp is its
		// last-round tick; duplicates of one line across segments
		// resolve in segment order, exactly as the scalar walk would.
		t0 := h.tick
		m := uint64(len(ways))
		rounds := uint64(k - 1)
		for idx := range ways {
			wy := &ways[idx]
			lastTick := t0 + (rounds-1)*m + uint64(idx) + 1
			l0.stats.Accesses += rounds
			l0.stats.Hits += rounds
			l0.stats.BytesServed += rounds * h.lineSize
			if wy.write {
				l0.stats.WriteHits += rounds
				wy.w.dirty = true
			} else {
				l0.stats.ReadHits += rounds
			}
			wy.w.used = lastTick
		}
		h.tick = t0 + rounds*m
		i += k
	}
}
