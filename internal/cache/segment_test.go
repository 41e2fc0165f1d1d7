package cache

import (
	"testing"

	"repro/internal/machine"
)

// Segment replay must be invisible in every counter: these tests drive
// AccessSegment/ReplaySegments on the optimized hierarchy and the
// documented scalar equivalence loop on the pre-optimization reference
// model from fastpath_test.go, comparing all statistics exactly after
// every replay. The scenarios cover both fast paths (line chunking,
// closed-form resident sweeps) and every fallback edge: straddling
// elements, conflict evictions that defeat the residency proof,
// blocks larger than the innermost level, write-through stores,
// prefetching, zero strides, and address-space wraparound.

// refReplaySegments is the scalar definition of ReplaySegments, driven
// through the reference model.
func refReplaySegments(h *refHierarchy, segs []Segment, sweeps int) {
	maxCount := 0
	for _, s := range segs {
		if s.Count > maxCount {
			maxCount = s.Count
		}
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < maxCount; i++ {
			for _, s := range segs {
				if i < s.Count {
					h.Access(s.Base+uint64(i)*s.Stride, s.Size, s.Write)
				}
			}
		}
	}
}

// replay drives one segment group through both models and checks.
func (p *pair) replay(phase string, segs []Segment, sweeps int) {
	p.t.Helper()
	p.opt.ReplaySegments(segs, sweeps)
	refReplaySegments(p.ref, segs, sweeps)
	p.check(phase)
}

// interleave4 builds the FMM SoA shape: four parallel word arrays read
// in lock step, bases far enough apart to share cache sets.
func interleave4(base uint64, count int, write3 bool) []Segment {
	const gib = 1 << 30
	return []Segment{
		{Base: base, Stride: 4, Count: count, Size: 4},
		{Base: base + gib, Stride: 4, Count: count, Size: 4},
		{Base: base + 2*gib, Stride: 4, Count: count, Size: 4},
		{Base: base + 3*gib, Stride: 4, Count: count, Size: 4, Write: write3},
	}
}

func driveSegments(p *pair) {
	// Word streaming: the canonical 16-words-per-line chunk shape.
	p.replay("stream", []Segment{{Base: 0, Stride: 4, Count: 6000, Size: 4}}, 1)

	// Repeated sweeps over a block that fits in L1: the closed-form
	// resident-sweep path.
	p.replay("resident-sweeps", []Segment{{Base: 1 << 22, Stride: 4, Count: 512, Size: 4}}, 7)

	// SoA interleave with a write lane, swept repeatedly.
	p.replay("soa-sweeps", interleave4(1<<23, 300, true), 5)

	// AoS records: 16-byte elements, line-aligned base.
	p.replay("aos", []Segment{{Base: 5 << 30, Stride: 16, Count: 2000, Size: 16}}, 3)

	// Unaligned AoS: every fourth element straddles a 64-byte line (and
	// every element straddles the reference's 96-byte lines differently),
	// forcing scalar rounds between chunks.
	p.replay("straddle", []Segment{{Base: (5 << 30) + 8, Stride: 16, Count: 1500, Size: 16}}, 2)

	// Stride wider than a line: every run has length 1 (pure walk).
	p.replay("wide-stride", []Segment{{Base: 1 << 24, Stride: 200, Count: 3000, Size: 8, Write: true}}, 2)

	// Stride that does not divide the line size: runs of uneven length.
	p.replay("odd-stride", []Segment{{Base: 1 << 25, Stride: 12, Count: 4000, Size: 4}}, 2)

	// Zero stride: one element hammered Count times.
	p.replay("zero-stride", []Segment{{Base: 1 << 26, Stride: 0, Count: 500, Size: 4}}, 2)

	// Overlapping elements: stride smaller than size.
	p.replay("overlap", []Segment{{Base: 1 << 27, Stride: 4, Count: 2000, Size: 16}}, 2)

	// A block much larger than the innermost level: the residency proof
	// must fail and the remaining sweeps replay chunked.
	p.replay("capacity-fallback", []Segment{{Base: 0, Stride: 64, Count: 8192, Size: 8}}, 3)

	// More interleaved same-set lines than the innermost level has ways:
	// round-0 installs evict round-0 neighbours, defeating the chunk
	// residency check (conflict fallback).
	var conflict []Segment
	for w := 0; w < 12; w++ {
		conflict = append(conflict, Segment{Base: uint64(w) << 30, Stride: 4, Count: 256, Size: 4, Write: w%5 == 4})
	}
	p.replay("conflict-fallback", conflict, 3)

	// Unequal counts: the active set shrinks mid-replay.
	p.replay("ragged", []Segment{
		{Base: 0, Stride: 4, Count: 1000, Size: 4},
		{Base: 1 << 28, Stride: 4, Count: 300, Size: 4, Write: true},
		{Base: 1 << 29, Stride: 8, Count: 650, Size: 8},
	}, 3)

	// Degenerate descriptors: zero/negative counts and sizes are no-ops.
	p.replay("degenerate", []Segment{
		{Base: 4096, Stride: 4, Count: 0, Size: 4},
		{Base: 4096, Stride: 4, Count: 16, Size: 0},
		{Base: 4096, Stride: 4, Count: -3, Size: -8},
		{Base: 8192, Stride: 4, Count: 64, Size: 4},
	}, 4)

	// Address-space wraparound: elements whose byte range wraps are
	// no-ops in the scalar walk and must stay no-ops here.
	p.replay("wrap", []Segment{{Base: ^uint64(0) - 100, Stride: 32, Count: 16, Size: 8}}, 2)

	// Prefetching: round-0 misses issue next-line fetches; with a
	// single level these can evict chunk neighbours (verification
	// catches it), with two levels they only touch the outer level.
	p.prefetch(true)
	p.replay("prefetch", interleave4(1<<24, 2048, false), 2)
	p.prefetch(false)

	// Reset between replays: scratch state must not leak.
	p.reset()
	p.replay("post-reset", []Segment{{Base: 0, Stride: 4, Count: 1024, Size: 4}}, 4)

	// Interactions with plain word traffic before and after bulk replay.
	for i := uint64(0); i < 2000; i++ {
		p.access(i*28, 8, i%7 == 3)
	}
	p.check("mixed-scalar")
	p.replay("mixed-bulk", interleave4(0, 1200, true), 3)
}

func TestReplaySegmentsMatchesReference(t *testing.T) {
	driveSegments(newPair(t, twoLevels()))
}

func TestReplaySegmentsMatchesReferenceNonPow2(t *testing.T) {
	driveSegments(newPair(t, nonPow2Levels()))
}

func TestReplaySegmentsMatchesReferenceSingleLevel(t *testing.T) {
	driveSegments(newPair(t, []machine.CacheLevel{
		{Name: "L1", Size: 16 << 10, LineSize: 64, Assoc: 4},
	}))
}

// TestReplaySegmentsMatchesReferenceTinyAssoc uses a direct-mapped-ish
// geometry where interleaved lanes constantly conflict, keeping the
// fallback paths hot.
func TestReplaySegmentsMatchesReferenceTinyAssoc(t *testing.T) {
	driveSegments(newPair(t, []machine.CacheLevel{
		{Name: "L1", Size: 8 << 10, LineSize: 64, Assoc: 2},
		{Name: "L2", Size: 64 << 10, LineSize: 64, Assoc: 4},
	}))
}

// TestAccessSegmentMatchesLoop pins the AccessSegment == scalar-loop
// equivalence directly on the optimized hierarchy (two instances), so
// the single-segment entry point is covered without the reference
// model in the loop.
func TestAccessSegmentMatchesLoop(t *testing.T) {
	a, err := New(twoLevels())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(twoLevels())
	if err != nil {
		t.Fatal(err)
	}
	segs := []Segment{
		{Base: 64, Stride: 4, Count: 3000, Size: 4},
		{Base: 1 << 21, Stride: 16, Count: 700, Size: 16, Write: true},
		{Base: (1 << 22) + 4, Stride: 24, Count: 900, Size: 12},
	}
	for _, s := range segs {
		a.AccessSegment(s)
		for i := 0; i < s.Count; i++ {
			b.Access(s.Base+uint64(i)*s.Stride, s.Size, s.Write)
		}
	}
	ga, gb := a.Stats(), b.Stats()
	for i := range gb {
		if ga[i] != gb[i] {
			t.Errorf("level %d stats diverged:\n got  %+v\n want %+v", i, ga[i], gb[i])
		}
	}
	if a.DRAMReadBytes() != b.DRAMReadBytes() || a.DRAMWriteBytes() != b.DRAMWriteBytes() {
		t.Errorf("DRAM traffic diverged: got %d/%d, want %d/%d",
			a.DRAMReadBytes(), a.DRAMWriteBytes(), b.DRAMReadBytes(), b.DRAMWriteBytes())
	}
}

// TestReplaySegmentsSteadyStateAllocs pins the zero-allocation contract
// of the bulk replay: after the first call warms the scratch buffers,
// replays allocate nothing.
func TestReplaySegmentsSteadyStateAllocs(t *testing.T) {
	h, err := New(twoLevels())
	if err != nil {
		t.Fatal(err)
	}
	segs := interleave4(0, 512, true)
	h.ReplaySegments(segs, 4) // warm scratch
	n := testing.AllocsPerRun(20, func() {
		h.ReplaySegments(segs, 4)
	})
	if n > 0 {
		t.Errorf("ReplaySegments allocates %v times per call in steady state, want 0", n)
	}
}
