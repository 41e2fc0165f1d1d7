package fmm

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
)

// simulateTrafficWords is the pre-segment word-at-a-time replay,
// preserved verbatim as the reference semantics for SimulateTraffic.
// Every counter the segment-based implementation produces must be
// bit-identical to this loop.
func simulateTrafficWords(t *Tree, u ULists, v Shape, h *cache.Hierarchy) (Traffic, error) {
	h.Reset()
	var tr Traffic

	group := v.TargetTile * BroadcastWidth
	readRecord := func(idx int) {
		if v.Layout == AoS {
			h.Read(baseAoS+uint64(idx)*recordBytes, recordBytes)
			return
		}
		h.Read(baseX+uint64(idx)*wordBytes, wordBytes)
		h.Read(baseY+uint64(idx)*wordBytes, wordBytes)
		h.Read(baseZ+uint64(idx)*wordBytes, wordBytes)
		h.Read(baseD+uint64(idx)*wordBytes, wordBytes)
	}

	for bi, li := range t.Leaves {
		b := &t.Nodes[li]
		qb := b.NumPoints()
		if qb == 0 {
			continue
		}
		for i := b.Start; i < b.End; i++ {
			readRecord(i)
		}
		sweeps := (qb + group - 1) / group
		for _, si := range u[bi] {
			s := &t.Nodes[si]
			qs := s.NumPoints()
			if qs == 0 {
				continue
			}
			blockBytes := float64(qs * recordBytes)
			switch v.Staging {
			case CacheOnly:
				for sweep := 0; sweep < sweeps; sweep++ {
					for j := s.Start; j < s.End; j++ {
						readRecord(j)
					}
				}
			case SharedMem:
				for j := s.Start; j < s.End; j++ {
					readRecord(j)
				}
				tr.SharedBytes += float64(sweeps) * blockBytes
			case TextureMem:
				for j := s.Start; j < s.End; j++ {
					readRecord(j)
				}
				tr.TextureBytes += float64(sweeps) * blockBytes
			}
			if v.TargetTile == 1 {
				for i := b.Start; i < b.End; i++ {
					h.Read(basePhi+uint64(i)*wordBytes, wordBytes)
					h.Write(basePhi+uint64(i)*wordBytes, wordBytes)
				}
			}
		}
		for i := b.Start; i < b.End; i++ {
			h.Write(basePhi+uint64(i)*wordBytes, wordBytes)
		}
	}

	tr.DRAMReadBytes = float64(h.DRAMReadBytes())
	tr.DRAMWriteBytes = float64(h.DRAMWriteBytes())
	for _, ls := range h.Stats() {
		tr.Levels = append(tr.Levels, core.LevelTraffic{
			Name:  ls.Name,
			Bytes: float64(ls.BytesServed),
		})
	}
	return tr, nil
}

// lockstepHierarchies builds the geometries the equivalence is checked
// on: the study's GTX 580 hierarchy plus a deliberately tiny two-level
// one where source blocks overflow L1 and lanes conflict, keeping the
// segment fallback paths honest.
func lockstepHierarchies(t *testing.T) map[string]func() *cache.Hierarchy {
	t.Helper()
	return map[string]func() *cache.Hierarchy{
		"gtx580": func() *cache.Hierarchy {
			h, err := cache.FromMachine(machine.GTX580())
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		"tiny": func() *cache.Hierarchy {
			h, err := cache.New([]machine.CacheLevel{
				{Name: "L1", Size: 4 << 10, LineSize: 64, Assoc: 2},
				{Name: "L2", Size: 32 << 10, LineSize: 64, Assoc: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
}

// distinctShapes returns the shapes of vs in first-seen order.
func distinctShapes(vs []Variant) []Shape {
	seen := map[Shape]bool{}
	var out []Shape
	for _, v := range vs {
		if !seen[v.Shape] {
			seen[v.Shape] = true
			out = append(out, v.Shape)
		}
	}
	return out
}

// matchWordReplay replays each shape through the segment-based
// SimulateTraffic and the preserved word-at-a-time reference, on both
// lockstep hierarchies, and requires identical Traffic — DRAM bytes,
// per-level served bytes in order, staging bytes.
func matchWordReplay(t *testing.T, tree *Tree, shapes []Shape) {
	t.Helper()
	u := tree.BuildULists()
	for name, mk := range lockstepHierarchies(t) {
		hSeg, hWord := mk(), mk()
		for _, sh := range shapes {
			got, err := tree.SimulateTraffic(u, sh, hSeg)
			if err != nil {
				t.Fatalf("%s/%+v: %v", name, sh, err)
			}
			want, err := simulateTrafficWords(tree, u, sh, hWord)
			if err != nil {
				t.Fatalf("%s/%+v: reference: %v", name, sh, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%+v: traffic diverged\n got  %+v\n want %+v", name, sh, got, want)
			}
		}
	}
}

// TestSimulateTrafficMatchesWordReplay checks every shape of the
// generated population (2 layouts × 3 stagings × 7 tiles) against the
// word-at-a-time reference.
func TestSimulateTrafficMatchesWordReplay(t *testing.T) {
	p := UniformPoints(768, 6)
	tree, err := Build(p, 96, 8)
	if err != nil {
		t.Fatal(err)
	}
	shapes := distinctShapes(GenerateVariants())
	if len(shapes) != 42 {
		t.Fatalf("population has %d shapes, want 42", len(shapes))
	}
	matchWordReplay(t, tree, shapes)
}

// TestSimulateTrafficMatchesWordReplayClustered repeats the lockstep
// check on a clustered distribution, whose ragged leaf populations
// produce uneven segment counts and single-point leaves.
func TestSimulateTrafficMatchesWordReplayClustered(t *testing.T) {
	p := ClusteredPoints(1024, 3, 17)
	tree, err := Build(p, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	matchWordReplay(t, tree, []Shape{
		{Layout: SoA, Staging: CacheOnly, TargetTile: 1},
		{Layout: SoA, Staging: CacheOnly, TargetTile: 16},
		{Layout: AoS, Staging: CacheOnly, TargetTile: 4},
		{Layout: SoA, Staging: SharedMem, TargetTile: 8},
		{Layout: AoS, Staging: TextureMem, TargetTile: 1},
	})
}

// TestSimulateTrafficAllocs pins the PR 4 allocation regression fix:
// Traffic.Levels is preallocated, so a SimulateTraffic call allocates
// a small constant independent of sweep and access counts.
func TestSimulateTrafficAllocs(t *testing.T) {
	p := UniformPoints(512, 6)
	tree, err := Build(p, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tree.BuildULists()
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	v := Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 4}
	if _, err := tree.SimulateTraffic(u, v, h); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := tree.SimulateTraffic(u, v, h); err != nil {
			t.Fatal(err)
		}
	})
	// The preallocated Traffic.Levels slice is the only per-call
	// allocation — nothing proportional to leaves, sweeps, or accesses.
	if n > 2 {
		t.Errorf("SimulateTraffic allocates %v times per call, want <= 2", n)
	}
}
