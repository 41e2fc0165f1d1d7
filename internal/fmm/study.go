package fmm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The study's fixed ground truth. It runs on the GTX 580, as in the
// paper.
const (
	// studyMaxDepth caps the octree depth.
	studyMaxDepth = 8
	// noiseSD is the relative energy-measurement noise.
	noiseSD = 0.015
	// sharedEnergyPerByte is the ground-truth scratchpad staging cost
	// in Joules per byte (30 pJ).
	sharedEnergyPerByte = 30e-12
	// textureEnergyPerByte is the texture-path cost (90 pJ).
	textureEnergyPerByte = 90e-12
)

// StudyConfig parameterises the §V-C energy-estimation study.
type StudyConfig struct {
	// N is the number of particles (default 4096).
	N int
	// LeafSize is q, the tree split threshold (default 256; the paper
	// notes q is "typically on the order of hundreds or thousands").
	LeafSize int
	// Seed drives point generation and measurement noise.
	Seed int64
	// Variants is the population to study (default GenerateVariants()).
	Variants []Variant
}

func (c *StudyConfig) defaults() {
	if c.N == 0 {
		c.N = 4096
	}
	if c.LeafSize == 0 {
		c.LeafSize = 256
	}
	if c.Variants == nil {
		c.Variants = GenerateVariants()
	}
}

// VariantResult is the study's record for one variant.
type VariantResult struct {
	// Variant identifies the implementation.
	Variant Variant
	// W is the flop count (shared by all variants).
	W float64
	// Traffic is the counter-level byte accounting.
	Traffic Traffic
	// Time is the simulated execution time in seconds.
	Time float64
	// MeasuredEnergy is the noisy ground-truth energy in Joules.
	MeasuredEnergy float64
	// Eq2Estimate is the basic two-level model estimate (eq. 2 with
	// measured time and counter-derived Q).
	Eq2Estimate float64
	// RefinedEstimate adds the fitted cache term (only meaningful for
	// cache-only variants, as in the paper).
	RefinedEstimate float64
}

// Eq2RelError is the signed relative error of the eq. 2 estimate:
// negative means underestimation.
func (r VariantResult) Eq2RelError() float64 {
	return (r.Eq2Estimate - r.MeasuredEnergy) / r.MeasuredEnergy
}

// RefinedRelError is the absolute relative error of the refined
// estimate.
func (r VariantResult) RefinedRelError() float64 {
	return stats.RelErr(r.RefinedEstimate, r.MeasuredEnergy)
}

// StudyResult aggregates the study.
type StudyResult struct {
	// MachineName records the platform.
	MachineName string
	// Pairs is the U-list pair count of the instance.
	Pairs int64
	// W is the phase's flop count.
	W float64
	// Results holds one record per variant.
	Results []VariantResult
	// FittedCachePJ is the recovered cache energy per byte in pJ —
	// the paper's 187 pJ/B.
	FittedCachePJ float64
	// TrueCachePJ is the planted ground truth, for comparison.
	TrueCachePJ float64
	// MeanUnderestimate is the mean of -Eq2RelError over cache-only
	// variants — the paper's "lower by 33% on average".
	MeanUnderestimate float64
	// MedianRefinedErr is the median RefinedRelError over cache-only
	// variants excluding the reference — the paper's 4.1%.
	MedianRefinedErr float64
	// CacheOnlyCount is the size of the L1/L2-only class.
	CacheOnlyCount int
}

// RunStudy reproduces §V-C: build one FMM instance, replay each
// distinct variant Shape's memory behaviour through the cache simulator
// once, "measure" each variant's energy on the simulated platform,
// estimate it with the basic two-level model (eq. 2), fit the lumped
// cache energy from the reference implementation, and re-estimate the
// L1/L2-only class.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	return RunStudyCtx(context.Background(), cfg)
}

// RunStudyCtx is RunStudy with span tracing: when ctx carries a
// trace.Tracer the study records an "fmm.study" span enclosing an
// "fmm.tree" span (octree build + U-list construction), one
// "fmm.cache_replay" span covering the per-shape traffic simulation
// through the cache hierarchy (tagged with the number of shapes), and
// an "fmm.fit" span for the lumped cache-energy fit and refined
// estimates. Tracing reads only the clock, so results are identical
// with or without it.
func RunStudyCtx(ctx context.Context, cfg StudyConfig) (*StudyResult, error) {
	cfg.defaults()
	ctx, study := trace.Start(ctx, "fmm.study")
	study.Tag("n", cfg.N).Tag("variants", len(cfg.Variants))
	defer study.End()
	if len(cfg.Variants) == 0 {
		return nil, errors.New("fmm: no variants")
	}

	pts := UniformPoints(cfg.N, cfg.Seed)
	_, treeSpan := trace.Start(ctx, "fmm.tree")
	tree, err := Build(pts, cfg.LeafSize, studyMaxDepth)
	if err != nil {
		treeSpan.End()
		return nil, err
	}
	u := tree.BuildULists()
	pairs := tree.Pairs(u)
	w := Work(pairs)
	treeSpan.Tag("pairs", pairs).End()

	m := machine.GTX580()
	h, err := cache.FromMachine(m)
	if err != nil {
		return nil, err
	}
	params := core.FromMachine(m, machine.Single)
	peak := m.SP.PeakFlops
	rng := stats.NewRand(cfg.Seed + 1)

	// Ground-truth per-level cache energies from the machine description.
	levelEnergy := map[string]float64{}
	for _, cl := range m.Caches {
		levelEnergy[cl.Name] = float64(cl.EnergyPerByte)
	}

	res := &StudyResult{
		MachineName: m.Name,
		Pairs:       pairs,
		W:           w,
		TrueCachePJ: float64(m.Caches[0].EnergyPerByte) * 1e12,
	}

	_, replay := trace.Start(ctx, "fmm.cache_replay")
	traffic := map[Shape]Traffic{}
	for _, v := range cfg.Variants {
		if v.TargetTile < 1 || v.Unroll < 1 || v.VectorWidth < 1 {
			return nil, fmt.Errorf("fmm: variant %s has non-positive parameters", v.Name())
		}
		if _, ok := traffic[v.Shape]; ok {
			continue
		}
		tr, err := tree.SimulateTraffic(u, v.Shape, h)
		if err != nil {
			return nil, err
		}
		// Attach ground-truth level costs for the energy computation.
		for i := range tr.Levels {
			tr.Levels[i].EpsPerByte = levelEnergy[tr.Levels[i].Name]
		}
		traffic[v.Shape] = tr
	}
	replay.Tag("shapes", len(traffic)).End()

	refIdx := -1
	for _, v := range cfg.Variants {
		tr := traffic[v.Shape]
		tr.Levels = slices.Clone(tr.Levels)
		t := w / (peak * v.Efficiency())

		// Ground truth: flops + DRAM + per-level cache + staging +
		// constant power, with measurement noise.
		k := core.Kernel{W: w, Q: tr.DRAMReadBytes + tr.DRAMWriteBytes}
		trueE, err := params.MultiLevelEnergy(k, tr.Levels, t)
		if err != nil {
			return nil, err
		}
		trueE += tr.SharedBytes*sharedEnergyPerByte + tr.TextureBytes*textureEnergyPerByte
		measured := trueE * rng.RelNoise(noiseSD)

		// The estimator only sees counters: the paper derives Q from L2
		// read misses, so eq. 2 uses DRAM read traffic.
		eq2 := params.TwoLevelEnergyAt(core.Kernel{W: w, Q: tr.DRAMReadBytes}, t)

		vr := VariantResult{
			Variant:        v,
			W:              w,
			Traffic:        tr,
			Time:           t,
			MeasuredEnergy: measured,
			Eq2Estimate:    eq2,
		}
		if v.IsReference() {
			refIdx = len(res.Results)
		}
		res.Results = append(res.Results, vr)
	}
	if refIdx < 0 {
		return nil, errors.New("fmm: variant population lacks the reference implementation (SoA, cache-only, tile 1, unroll 1, width 1)")
	}

	// Fit the lumped cache cost from the reference variant (§V-C).
	_, fitSpan := trace.Start(ctx, "fmm.fit")
	defer fitSpan.End()
	ref := &res.Results[refIdx]
	fit, err := core.FitLevelEnergy(ref.MeasuredEnergy, ref.Eq2Estimate, ref.Traffic.CacheBytes())
	if err != nil {
		return nil, err
	}
	res.FittedCachePJ = fit * 1e12

	// Refined estimates and error statistics over the cache-only class.
	var under, refined []float64
	for i := range res.Results {
		r := &res.Results[i]
		r.RefinedEstimate = r.Eq2Estimate + fit*r.Traffic.CacheBytes()
		if !r.Variant.IsCacheOnly() {
			continue
		}
		res.CacheOnlyCount++
		under = append(under, -r.Eq2RelError())
		if i != refIdx {
			refined = append(refined, r.RefinedRelError())
		}
	}
	res.MeanUnderestimate, _ = stats.Mean(under)
	res.MedianRefinedErr, _ = stats.Median(refined)
	return res, nil
}

// IntensityOf returns the phase's operational intensity W/Q for a
// variant, with Q its DRAM read traffic — confirming the paper's
// observation that FMM-U is "typically compute-bound".
func (r VariantResult) IntensityOf() float64 {
	if r.Traffic.DRAMReadBytes == 0 {
		return 0
	}
	return r.W / r.Traffic.DRAMReadBytes
}

// SortByEq2Error orders results by most-severe underestimation first
// (diagnostic helper for reports).
func SortByEq2Error(rs []VariantResult) {
	sort.Slice(rs, func(i, j int) bool {
		return rs[i].Eq2RelError() < rs[j].Eq2RelError()
	})
}
