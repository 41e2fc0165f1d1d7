package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/machine"
)

// FuzzSegmentReplay decodes arbitrary segment groups, hierarchy
// geometries, and the prefetch bit from the fuzz input, replays them through
// ReplaySegments on the optimized hierarchy and through the documented
// scalar loop on the pre-optimization reference model, and requires
// every counter to match exactly. This is the adversarial complement to
// the scenario-based lockstep tests: the fuzzer owns the segment
// descriptors, so straddles, wraps, overlaps, conflicts, and degenerate
// shapes are explored without anyone having to imagine them first.
//
// Input layout: byte 0 packs the geometry (bits 0-1) and prefetch
// (bit 2); byte 1 picks the sweep count (1..5); each following 21-byte
// record is one segment (base u64, stride u64, count u16, size i16,
// flags). Counts and sizes are clamped to keep one case under a few
// hundred thousand line accesses.
func FuzzSegmentReplay(f *testing.F) {
	// Canonical shapes: word stream, repeated resident sweeps, an
	// unaligned AoS straddle, a same-set conflict pair, and a
	// wraparound probe near the top of the address space.
	f.Add([]byte{0, 2,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 100, 4, 0, 0})
	f.Add([]byte{1, 4,
		0, 0, 64, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0})
	f.Add([]byte{2, 1,
		8, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 200, 0, 16, 0, 1})
	f.Add([]byte{3, 3,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 64, 0, 4, 0, 0,
		0, 0, 0, 64, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 64, 0, 4, 0, 1})
	f.Add([]byte{4, 2,
		255, 255, 255, 255, 255, 255, 255, 255, 32, 0, 0, 0, 0, 0, 0, 0, 16, 0, 8, 0, 0})

	geoms := [][]machine.CacheLevel{
		twoLevels(),
		nonPow2Levels(),
		{{Name: "L1", Size: 16 << 10, LineSize: 64, Assoc: 4}},
		{{Name: "L1", Size: 8 << 10, LineSize: 64, Assoc: 2},
			{Name: "L2", Size: 64 << 10, LineSize: 64, Assoc: 4}},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := data[0]
		sweeps := 1 + int(data[1])%5
		levels := geoms[int(mode&3)]
		var segs []Segment
		for rest := data[2:]; len(rest) >= 21 && len(segs) < 6; rest = rest[21:] {
			size := int(int16(binary.LittleEndian.Uint16(rest[18:20])))
			if size > 256 {
				size = size % 257
			}
			segs = append(segs, Segment{
				Base:   binary.LittleEndian.Uint64(rest[0:8]),
				Stride: binary.LittleEndian.Uint64(rest[8:16]),
				Count:  int(binary.LittleEndian.Uint16(rest[16:18])) % 2048,
				Size:   size,
				Write:  rest[20]&1 != 0,
			})
		}

		opt, err := New(levels)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHierarchy(levels)
		opt.EnablePrefetch(mode&4 != 0)
		ref.prefetch = mode&4 != 0

		opt.ReplaySegments(segs, sweeps)
		refReplaySegments(ref, segs, sweeps)
		// The single-segment entry point, on the state the group left.
		if len(segs) > 0 {
			opt.AccessSegment(segs[0])
			refReplaySegments(ref, segs[:1], 1)
		}

		got, want := opt.Stats(), ref.Stats()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("level %d stats diverged:\n got  %+v\n want %+v\n segs %+v sweeps %d mode %#x",
					i, got[i], want[i], segs, sweeps, mode)
			}
		}
		if g, w := opt.DRAMReadBytes(), ref.dramReadLines*ref.lineSize; g != w {
			t.Errorf("DRAMReadBytes = %d, want %d (segs %+v sweeps %d mode %#x)", g, w, segs, sweeps, mode)
		}
		if g, w := opt.DRAMWriteBytes(), ref.dramWriteLines*ref.lineSize; g != w {
			t.Errorf("DRAMWriteBytes = %d, want %d (segs %+v sweeps %d mode %#x)", g, w, segs, sweeps, mode)
		}
		if g, w := opt.PrefetchIssued(), ref.prefetchIssued; g != w {
			t.Errorf("PrefetchIssued = %d, want %d (segs %+v sweeps %d mode %#x)", g, w, segs, sweeps, mode)
		}
	})
}
