package energyroofline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fmm"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/powermon"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkCore runs the core hot-path scenarios BENCH_core.json
// records (docs/PERFORMANCE.md has the table). Every scenario has fixed
// seeds, so allocs/op is reproducible anywhere. batch_eval_scalar_ref
// is batch_eval's sweep as a scalar loop: measured in the same run, it
// holds batch_eval to a speedup that does not depend on the host.
func BenchmarkCore(b *testing.B) {
	b.Run("single_run", benchSingleRun)
	b.Run("batch_eval", benchBatchEval)
	b.Run("batch_eval_scalar_ref", benchBatchEvalScalar)
	b.Run("segment_replay", benchSegmentReplay)
	b.Run("sweep_64rep", benchSweep64)
	b.Run("campaign", benchCoreCampaign)
	b.Run("fmm_replay", benchFMMReplay)
}

func benchSingleRun(b *testing.B) {
	eng, err := sim.New(machine.GTX580(), sim.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	spec := sim.KernelSpec{W: 1e9, Q: 2.5e8, Precision: machine.Single}
	rng := stats.DeriveRand(eng.Seed(), 0xC0DE)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunWith(rng, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// batchEvalPoints is the batch_eval sweep size: large enough that the
// per-point loop dominates and cache effects are realistic, small
// enough that the scalar reference still finishes quickly.
const batchEvalPoints = 10000

// batchEvalColumns builds the deterministic (W, Q) sweep both the batch
// scenario and its scalar reference evaluate: fixed work across a
// log-spaced intensity grid, with an artificial power cap active so the
// capped branch is exercised on both sides.
func batchEvalColumns() (core.Params, []float64, []float64) {
	p := core.FromMachine(machine.GTX580(), machine.Double)
	p.PowerCap = 180
	w := make([]float64, batchEvalPoints)
	for i := range w {
		w[i] = 1e9
	}
	q := make([]float64, batchEvalPoints)
	core.QAtInto(q, w, core.LogGrid(1e-3, 1e6, batchEvalPoints))
	return p, w, q
}

func benchBatchEval(b *testing.B) {
	p, w, q := batchEvalColumns()
	var batch core.Batch
	batch.Reserve(batchEvalPoints) // steady state: columns pre-sized once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvalInto(&batch, w, q)
	}
}

// benchBatchEvalScalar is the reference batch_eval is gated against:
// the same sweep written the way a consumer would without the batch
// API — one scalar method call per output column per point.
func benchBatchEvalScalar(b *testing.B) {
	p, w, q := batchEvalColumns()
	var batch core.Batch
	batch.Reserve(batchEvalPoints)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batchEvalPoints; j++ {
			k := core.Kernel{W: w[j], Q: q[j]}
			batch.Time[j] = p.Time(k)
			batch.Energy[j] = p.Energy(k)
			batch.Power[j] = p.AveragePower(k)
			batch.CappedTime[j] = p.CappedTime(k)
			batch.CappedEnergy[j] = p.CappedEnergy(k)
			batch.CappedPower[j] = p.CappedPower(k)
		}
	}
}

func benchSegmentReplay(b *testing.B) {
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		b.Fatal(err)
	}
	// Three regimes per iteration: a long streaming pass (line
	// chunking), repeated sweeps over an L1-resident SoA block (the
	// closed-form path), and a wide-strided read-modify-write walk
	// (single-line rounds, residency fallback pressure).
	stream := cache.Segment{Base: 0, Stride: 4, Count: 1 << 16, Size: 4}
	soa := []cache.Segment{
		{Base: 1 << 30, Stride: 4, Count: 512, Size: 4},
		{Base: 2 << 30, Stride: 4, Count: 512, Size: 4},
		{Base: 3 << 30, Stride: 4, Count: 512, Size: 4},
		{Base: 4 << 30, Stride: 4, Count: 512, Size: 4, Write: true},
	}
	strided := []cache.Segment{
		{Base: 5 << 30, Stride: 192, Count: 4096, Size: 8},
		{Base: 5 << 30, Stride: 192, Count: 4096, Size: 8, Write: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.AccessSegment(stream)
		h.ReplaySegments(soa, 64)
		h.ReplaySegments(strided, 2)
	}
}

func benchSweep64(b *testing.B) {
	eng, err := sim.New(machine.GTX580(), sim.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	mon, err := powermon.New(powermon.GPUChannels(), powermon.Config{Seed: 7, RateHz: 1024})
	if err != nil {
		b.Fatal(err)
	}
	cfg := microbench.SweepConfig{
		Intensities: core.LogGrid(0.25, 64, 5),
		VolumeBytes: 1 << 24,
		Reps:        64,
		Monitor:     mon,
		Workers:     1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microbench.Sweep(nil, eng, machine.Single, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCoreCampaign(b *testing.B) {
	cfg := campaign.Config{
		Machines:    []string{"gtx580", "i7-950"},
		LoIntensity: 0.25,
		HiIntensity: 64,
		Points:      5,
		Reps:        6,
		VolumeBytes: 1 << 24,
		UsePowerMon: true,
		Seed:        42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFMMReplay(b *testing.B) {
	// The first 24 generated variants cover SoA cache-only tiles and
	// include the reference implementation (variant 0) the study's fit
	// requires.
	variants := fmm.GenerateVariants()[:24]
	cfg := fmm.StudyConfig{N: 1024, LeafSize: 64, Seed: 7, Variants: variants}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmm.RunStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
