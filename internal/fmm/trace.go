package fmm

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// BroadcastWidth is the SIMT broadcast factor: this many targets are
// processed in lock-step and share a single load of each source
// element, so source traffic per (B, S) sweep is one pass over S per
// BroadcastWidth·TargetTile targets.
const BroadcastWidth = 4

// wordBytes is the single-precision word size of the GPU kernel.
const wordBytes = 4

// recordBytes is one particle record (x, y, z, d) in bytes.
const recordBytes = 4 * wordBytes

// Array base addresses for the SoA layout; 1 GiB apart so arrays never
// alias in the cache index.
const (
	baseX   = 0
	baseY   = 1 << 30
	baseZ   = 2 << 30
	baseD   = 3 << 30
	basePhi = 4 << 30
	baseAoS = 5 << 30
)

// Traffic is the byte accounting of one simulated variant execution —
// the reproduction's stand-in for the profiler counters of §V-C.
type Traffic struct {
	// DRAMReadBytes is demand traffic from DRAM (the paper's "L2 read
	// misses" counter times the line size).
	DRAMReadBytes float64
	// DRAMWriteBytes is write-back traffic to DRAM.
	DRAMWriteBytes float64
	// Levels holds per-cache-level served bytes with their ground-truth
	// energy costs attached.
	Levels []core.LevelTraffic
	// SharedBytes is traffic served by scratchpad staging.
	SharedBytes float64
	// TextureBytes is traffic served through the texture path.
	TextureBytes float64
}

// CacheBytes is the total L1/L2-served traffic.
func (tr Traffic) CacheBytes() float64 {
	s := 0.0
	for _, l := range tr.Levels {
		s += l.Bytes
	}
	return s
}

// SimulateTraffic replays the memory behaviour of shape sh over the
// U-list phase through the given cache hierarchy (which is reset
// first) and returns the byte accounting.
//
// The access model per target leaf B: target coordinates are loaded
// once (registers hold them afterwards); for every source node
// S ∈ U(B), the source records are swept once per
// ceil(|B| / (TargetTile·BroadcastWidth)) target groups; a cache-only
// shape replays every sweep through the cache hierarchy, while
// shared/texture staging loads each block once through the hierarchy
// and serves the remaining sweeps from the staging path. Without
// register blocking the per-target potential is re-read and re-written
// around every (B, S) sweep; register-blocked shapes keep it live.
//
// Segment decomposition: instead of issuing one cache access per
// 4-byte word, the replay hands the hierarchy bulk descriptors
// (cache.Segment) that reproduce the word-at-a-time access sequence
// exactly. One contiguous run of particle records [first, first+count)
// becomes one 16-byte-strided segment for the AoS layout, or four
// element-interleaved word segments (x, y, z, d at bases 1 GiB apart)
// for SoA — cache.Hierarchy.ReplaySegments interleaves segments per
// element index, matching the original x[j], y[j], z[j], d[j] read
// order. The cache-only sweep loop is a single
// ReplaySegments(recordSegs, sweeps) call; the φ spill is a
// two-segment read/write interleave and the final write-out a single
// write segment. The counters this produces are bit-identical to the
// scalar replay (pinned by TestSimulateTrafficMatchesWordReplay).
func (t *Tree) SimulateTraffic(u ULists, sh Shape, h *cache.Hierarchy) (Traffic, error) {
	if len(u) != len(t.Leaves) {
		return Traffic{}, errors.New("fmm: U-list count does not match leaves")
	}
	if sh.TargetTile < 1 {
		return Traffic{}, fmt.Errorf("fmm: non-positive target tile %d", sh.TargetTile)
	}
	h.Reset()
	var tr Traffic

	group := sh.TargetTile * BroadcastWidth
	// recordSegs describes the particle records [first, first+count) as
	// replay segments (see the segment-decomposition note above).
	var segBuf [4]cache.Segment
	recordSegs := func(first, count int) []cache.Segment {
		if sh.Layout == AoS {
			segBuf[0] = cache.Segment{Base: baseAoS + uint64(first)*recordBytes, Stride: recordBytes, Count: count, Size: recordBytes}
			return segBuf[:1]
		}
		for k, base := range [...]uint64{baseX, baseY, baseZ, baseD} {
			segBuf[k] = cache.Segment{Base: base + uint64(first)*wordBytes, Stride: wordBytes, Count: count, Size: wordBytes}
		}
		return segBuf[:4]
	}
	var phiBuf [2]cache.Segment

	for bi, li := range t.Leaves {
		b := &t.Nodes[li]
		qb := b.NumPoints()
		if qb == 0 {
			continue
		}
		// Target coordinates: loaded once per leaf.
		h.ReplaySegments(recordSegs(b.Start, qb), 1)
		sweeps := (qb + group - 1) / group
		for _, si := range u[bi] {
			s := &t.Nodes[si]
			qs := s.NumPoints()
			if qs == 0 {
				continue
			}
			blockBytes := float64(qs * recordBytes)
			switch sh.Staging {
			case CacheOnly:
				h.ReplaySegments(recordSegs(s.Start, qs), sweeps)
			case SharedMem:
				// Stage once through the caches, then serve all sweeps
				// from scratchpad.
				h.ReplaySegments(recordSegs(s.Start, qs), 1)
				tr.SharedBytes += float64(sweeps) * blockBytes
			case TextureMem:
				// The texture path has its own small cache; model it as
				// one staging pass through the hierarchy plus
				// texture-served sweeps.
				h.ReplaySegments(recordSegs(s.Start, qs), 1)
				tr.TextureBytes += float64(sweeps) * blockBytes
			}
			// Without register blocking the accumulator spills: φ is
			// re-read and re-written around every (B, S) sweep.
			if sh.TargetTile == 1 {
				phiBase := basePhi + uint64(b.Start)*wordBytes
				phiBuf[0] = cache.Segment{Base: phiBase, Stride: wordBytes, Count: qb, Size: wordBytes}
				phiBuf[1] = cache.Segment{Base: phiBase, Stride: wordBytes, Count: qb, Size: wordBytes, Write: true}
				h.ReplaySegments(phiBuf[:], 1)
			}
		}
		// Final potential write-out.
		h.AccessSegment(cache.Segment{Base: basePhi + uint64(b.Start)*wordBytes, Stride: wordBytes, Count: qb, Size: wordBytes, Write: true})
	}

	tr.DRAMReadBytes = float64(h.DRAMReadBytes())
	tr.DRAMWriteBytes = float64(h.DRAMWriteBytes())
	tr.Levels = make([]core.LevelTraffic, h.NumLevels())
	for i := range tr.Levels {
		ls := h.Level(i)
		tr.Levels[i] = core.LevelTraffic{
			Name:  ls.Name,
			Bytes: float64(ls.BytesServed),
		}
	}
	return tr, nil
}
