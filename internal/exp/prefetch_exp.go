package exp

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/fmm"
	"repro/internal/machine"
)

func init() {
	register(Experiment{ID: "ablation-prefetch", Title: "Next-line prefetcher ablation: streaming vs reuse-heavy traffic", Run: runAblationPrefetch})
}

func runAblationPrefetch(Config) (*Report, error) {
	m := machine.GTX580()
	var sb strings.Builder

	// Streaming workload: a linear sweep. The prefetcher roughly halves
	// outer-level demand misses without reducing total traffic —
	// compulsory fetches can be reordered, never removed.
	stream := func(pf bool) (demand, dram uint64, err error) {
		h, err := cache.FromMachine(m)
		if err != nil {
			return 0, 0, err
		}
		h.EnablePrefetch(pf)
		const lines = 8192
		for i := 0; i < lines; i++ {
			h.Read(uint64(i)*uint64(h.LineSize()), h.LineSize())
		}
		st := h.Stats()
		return st[len(st)-1].DemandMisses, h.DRAMReadBytes(), nil
	}
	sOffD, sOffT, err := stream(false)
	if err != nil {
		return nil, err
	}
	sOnD, sOnT, err := stream(true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "streaming sweep: demand misses %d → %d with prefetch; DRAM bytes %d → %d\n",
		sOffD, sOnD, sOffT, sOnT)

	// Reuse-heavy workload: the FMM U-list reference variant. Source
	// blocks are revisited constantly, so the prefetcher has little
	// useful left to fetch; its speculative lines must not blow up the
	// traffic either.
	fmmTraffic := func(pf bool) (float64, error) {
		pts := fmm.UniformPoints(1024, 9)
		tr, err := fmm.Build(pts, 128, 8)
		if err != nil {
			return 0, err
		}
		u := tr.BuildULists()
		h, err := cache.FromMachine(m)
		if err != nil {
			return 0, err
		}
		h.EnablePrefetch(pf)
		ref := fmm.Shape{Layout: fmm.SoA, Staging: fmm.CacheOnly, TargetTile: 1}
		tf, err := tr.SimulateTraffic(u, ref, h)
		if err != nil {
			return 0, err
		}
		return tf.DRAMReadBytes, nil
	}
	fOff, err := fmmTraffic(false)
	if err != nil {
		return nil, err
	}
	fOn, err := fmmTraffic(true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "FMM U-list reference: DRAM read bytes %.3g → %.3g with prefetch (×%.2f)\n",
		fOff, fOn, fOn/fOff)

	return &Report{
		ID: "ablation-prefetch", Title: "Prefetcher ablation",
		Comparisons: []Comparison{
			{Name: "streaming demand misses at least halved", Paper: 1,
				Measured: boolTo01(sOnD <= sOffD/2+64), Tol: 1e-9},
			{Name: "streaming DRAM traffic unchanged (compulsory)", Paper: 1,
				Measured: float64(sOnT) / float64(sOffT), Tol: 0.01,
				Note: "prefetching reorders compulsory fetches, it cannot remove them"},
			{Name: "FMM traffic inflation stays below 2×", Paper: 1,
				Measured: boolTo01(fOn < 2*fOff), Tol: 1e-9,
				Note: "reuse-heavy access gives the prefetcher little to help with"},
		},
		Text: sb.String(),
	}, nil
}
