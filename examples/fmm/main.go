// FMM U-list walkthrough: the §V-C pipeline on a small instance,
// end to end — build the octree, compute potentials with the actual
// Algorithm-1 kernel (float32 GPU-style vs float64 reference), replay a
// variant's memory behaviour through the cache simulator, and estimate
// its energy with and without the cache-access term.
package main

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fmm"
	"repro/internal/machine"
)

func main() {
	const n = 2000
	pts := fmm.UniformPoints(n, 11)
	tree, err := fmm.Build(pts, 128, 10)
	if err != nil {
		panic(err)
	}
	u := tree.BuildULists()
	fmt.Printf("octree: %d points, %d leaves (q ≤ %d), U-list pairs: %d\n",
		n, len(tree.Leaves), tree.MaxLeafPoints, tree.Pairs(u))

	// Run the actual kernel both ways and compare (the paper verifies
	// its tuned GPU kernel against an equivalent CPU kernel).
	pairs, err := tree.Interact(u)
	if err != nil {
		panic(err)
	}
	ref := append([]float64(nil), pts.Phi...)
	if _, err := tree.InteractF32(u); err != nil {
		panic(err)
	}
	worst := 0.0
	for i := range ref {
		if ref[i] == 0 {
			continue
		}
		if e := math.Abs(pts.Phi[i]-ref[i]) / math.Abs(ref[i]); e > worst {
			worst = e
		}
	}
	w := fmm.Work(pairs)
	fmt.Printf("kernel: %d interactions, W = %.3g flops (11 per pair)\n", pairs, w)
	fmt.Printf("float32 rsqrt kernel vs float64 reference: worst relative error %.2g\n\n", worst)

	// Replay two variants through the GTX 580 cache hierarchy.
	m := machine.GTX580()
	h, err := cache.FromMachine(m)
	if err != nil {
		panic(err)
	}
	params := core.FromMachine(m, machine.Single)
	for _, v := range []fmm.Variant{
		{Shape: fmm.Shape{Layout: fmm.SoA, Staging: fmm.CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: 1},
		{Shape: fmm.Shape{Layout: fmm.SoA, Staging: fmm.CacheOnly, TargetTile: 16}, Unroll: 4, VectorWidth: 4},
	} {
		tr, err := tree.SimulateTraffic(u, v.Shape, h)
		if err != nil {
			panic(err)
		}
		t := w / (m.SP.PeakFlops * v.Efficiency())
		for i := range tr.Levels {
			tr.Levels[i].EpsPerByte = float64(m.Caches[i].EnergyPerByte)
		}
		k := core.Kernel{W: w, Q: tr.DRAMReadBytes + tr.DRAMWriteBytes}
		full, err := params.MultiLevelEnergy(k, tr.Levels, t)
		if err != nil {
			panic(err)
		}
		eq2 := params.TwoLevelEnergyAt(core.Kernel{W: w, Q: tr.DRAMReadBytes}, t)
		fmt.Printf("variant %s:\n", v.Name())
		fmt.Printf("  DRAM read %.3g B, cache traffic %.3g B, intensity %.0f flop/byte\n",
			tr.DRAMReadBytes, tr.CacheBytes(), w/tr.DRAMReadBytes)
		fmt.Printf("  energy with cache term: %.3g J; eq.(2) alone: %.3g J (%.0f%% low)\n\n",
			full, eq2, (1-eq2/full)*100)
	}
	fmt.Println("the gap between the two estimates is what the paper closes by fitting")
	fmt.Println("a 187 pJ/B cache-access energy (§V-C); for the full study run")
	fmt.Println("go run ./cmd/experiments -run fmmu.")
}
