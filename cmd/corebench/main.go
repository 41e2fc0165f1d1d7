// Command corebench is the repository's core hot-path benchmark
// harness: it runs a pinned set of end-to-end scenarios — a single
// kernel execution, a 64-rep monitored sweep, a full (small) campaign,
// and the §V-C FMM cache replay — through the exact code paths every
// campaign, server request, and study bottoms out in, and reports
// ns/op, bytes/op, and allocs/op per scenario.
//
// Results are tracked in BENCH_core.json at the repository root
// (internal/benchfile): a fixed pre-optimization baseline plus one
// appended entry per PR that touches the core path. Each run prints the
// speedup and allocation reduction against the recorded baseline; with
// -check the harness exits nonzero when a scenario regresses beyond the
// thresholds against the newest entry that records it, which is how CI
// keeps the optimizations permanent.
//
// Usage:
//
//	go run ./cmd/corebench                      # run all scenarios, compare to BENCH_core.json
//	go run ./cmd/corebench -scenario single_run # one scenario
//	go run ./cmd/corebench -check               # enforce regression thresholds (CI)
//	go run ./cmd/corebench -update -note "..."  # append this run to BENCH_core.json
//
// Time comparisons are hardware-dependent; allocation counts are not.
// CI therefore runs -check with a generous -max-slowdown and a tight
// -max-alloc-growth, so an allocation regression fails anywhere while
// timing noise on shared runners does not.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchfile"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fmm"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/powermon"
	"repro/internal/sim"
)

// scenario is one pinned benchmark target. Every scenario is fully
// deterministic (fixed seeds), so allocs/op is reproducible anywhere.
type scenario struct {
	name string
	desc string
	fn   func(b *testing.B)
	// refFn, when set, benchmarks a reference implementation of the same
	// work (e.g. the scalar loop batch_eval is gated against). It runs in
	// the same process on the same machine, so -check can enforce
	// minSpeedup as a hardware-independent ratio rather than an absolute
	// time. The reference's metrics are recorded under name+"_scalar_ref".
	refFn func(b *testing.B)
	// minSpeedup is the refFn-vs-fn speedup -check requires (0 = none).
	minSpeedup float64
}

// allocCeilings are hard allocs/op limits -check enforces regardless of
// recorded history.
var allocCeilings = map[string]int64{"batch_eval": 0}

// scenarios returns the pinned targets, smallest first.
func scenarios() []scenario {
	return []scenario{
		{
			name: "single_run",
			desc: "one sim.Engine.RunWith kernel execution (gtx580, derived stream)",
			fn:   benchSingleRun,
		},
		{
			name:       "batch_eval",
			desc:       "core.Params.EvalInto: fused 10k-point columnar model sweep into a reused Batch",
			fn:         benchBatchEval,
			refFn:      benchBatchEvalScalar,
			minSpeedup: 5,
		},
		{
			name: "segment_replay",
			desc: "cache.ReplaySegments: streaming, SoA resident sweeps, and strided fallback on the gtx580 hierarchy",
			fn:   benchSegmentReplay,
		},
		{
			name: "sweep_64rep",
			desc: "microbench.Sweep: 5 intensities x 64 reps through the 1024 Hz power monitor",
			fn:   benchSweep64,
		},
		{
			name: "campaign",
			desc: "campaign.RunParallel: tune->sweep->fit, both platforms, monitored",
			fn:   benchCampaign,
		},
		{
			name: "fmm_replay",
			desc: "fmm.RunStudy: octree + 24-variant cache-hierarchy traffic replay",
			fn:   benchFMMReplay,
		},
	}
}

func benchSingleRun(b *testing.B) {
	eng, err := sim.New(machine.GTX580(), sim.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	spec := sim.KernelSpec{W: 1e9, Q: 2.5e8, Precision: machine.Single}
	rng := eng.DeriveRand(0xC0DE)
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

func benchCampaign(b *testing.B) {
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
	cfg := fmm.StudyConfig{N: 1024, LeafSize: 64, MaxDepth: 8, Seed: 7, Variants: variants}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmm.RunStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// run measures one scenario with the testing harness.
func run(fn func(b *testing.B)) benchfile.Metrics {
	r := testing.Benchmark(fn)
	return benchfile.Metrics{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func main() {
	testing.Init()
	benchFile := flag.String("bench-file", "BENCH_core.json", "trajectory file to read baselines from and record entries into")
	scenarioFilter := flag.String("scenario", "all", "comma-separated scenario names to run, or 'all' (or 'list' to print them)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measurement time per scenario")
	check := flag.Bool("check", false, "exit nonzero when a scenario regresses beyond the thresholds against the newest entry that records it")
	maxSlowdown := flag.Float64("max-slowdown", 1.5, "-check fails when ns/op exceeds recorded*this (<= 0 disables the time check)")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 1.10, "-check fails when allocs/op exceeds recorded*this (<= 0 disables the alloc check)")
	update := flag.Bool("update", false, "append this run as a new entry in -bench-file")
	pr := flag.Int("pr", 0, "PR number to record with -update")
	note := flag.String("note", "", "note to record with -update")
	flag.Parse()

	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "corebench:", err)
		os.Exit(2)
	}

	all := scenarios()
	if *scenarioFilter == "list" {
		for _, s := range all {
			fmt.Printf("%-12s %s\n", s.name, s.desc)
		}
		return
	}
	var selected []scenario
	if *scenarioFilter == "all" || *scenarioFilter == "" {
		selected = all
	} else {
		want := map[string]bool{}
		for _, name := range strings.Split(*scenarioFilter, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for _, s := range all {
			if want[s.name] {
				selected = append(selected, s)
				delete(want, s.name)
			}
		}
		if len(want) > 0 {
			var unknown []string
			for name := range want {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "corebench: unknown scenario(s): %s (use -scenario list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	f, err := benchfile.Load(*benchFile, "Trajectory of core hot-path benchmarks (go run ./cmd/corebench). "+
		"The baseline block is the fixed pre-optimization reference; entries are append-only, one per PR touching the core path. "+
		"See docs/PERFORMANCE.md for methodology.")
	if err != nil {
		fmt.Fprintln(os.Stderr, "corebench:", err)
		os.Exit(2)
	}

	results := map[string]benchfile.Metrics{}
	names := make([]string, 0, len(selected))
	refSpeedups := map[string]float64{}
	fmt.Printf("%-12s %14s %14s %12s %10s %10s\n", "scenario", "ns/op", "B/op", "allocs/op", "speedup", "-allocs")
	for _, s := range selected {
		m := f.VsBaseline(s.name, run(s.fn))
		results[s.name] = m
		names = append(names, s.name)
		speedup, dealloc := "-", "-"
		if m.SpeedupVsBaseline > 0 {
			speedup = fmt.Sprintf("%.2fx", m.SpeedupVsBaseline)
			dealloc = fmt.Sprintf("%.0f%%", m.AllocReductionVsBaseline*100)
		}
		fmt.Printf("%-12s %14d %14d %12d %10s %10s\n",
			s.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, speedup, dealloc)
		if s.refFn != nil {
			rm := run(s.refFn)
			results[s.name+"_scalar_ref"] = rm
			if m.NsPerOp > 0 {
				refSpeedups[s.name] = float64(rm.NsPerOp) / float64(m.NsPerOp)
			}
			fmt.Printf("%-12s %14d %14d %12d %9.2fx  vs scalar reference\n",
				"  ref", rm.NsPerOp, rm.BytesPerOp, rm.AllocsPerOp, refSpeedups[s.name])
		}
	}

	var fails []string
	if *check {
		fails = f.Check(names, results, benchfile.Gate{
			MaxSlowdown: *maxSlowdown, MaxAllocGrowth: *maxAllocGrowth, Ceilings: allocCeilings})
		for _, s := range selected {
			if got := refSpeedups[s.name]; s.minSpeedup > 0 && got < s.minSpeedup {
				fails = append(fails, fmt.Sprintf("REGRESSION %s: %.2fx over the scalar reference, want >= %.2fx",
					s.name, got, s.minSpeedup))
			}
		}
		for _, line := range fails {
			fmt.Fprintln(os.Stderr, "corebench:", line)
		}
		if len(fails) == 0 {
			fmt.Println("corebench: all scenarios within thresholds")
		}
	}

	if *update {
		if err := f.Append(*benchFile, benchfile.Entry{PR: *pr, Note: *note, Scenarios: results}); err != nil {
			fmt.Fprintln(os.Stderr, "corebench:", err)
			os.Exit(2)
		}
		fmt.Printf("corebench: wrote %s\n", *benchFile)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}
