// Benchmarks regenerating every table and figure of the paper's
// evaluation and every extension study: BenchmarkExperiment has one
// sub-benchmark per registered experiment, each driving the same
// experiment code as `cmd/experiments`. Run with
//
//	go test -run '^$' -bench BenchmarkExperiment -benchmem .
//
// or a single artifact with -bench 'BenchmarkExperiment/^fig4a$'. The
// per-iteration work is the full (fast-mode) experiment, so ns/op
// reports the cost of regenerating that artifact.
package energyroofline

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
)

func BenchmarkExperiment(b *testing.B) {
	cfg := exp.Config{Seed: exp.DefaultSeed, Fast: true}
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if f := rep.Failures(); len(f) != 0 {
					b.Fatalf("%s deviates: %+v", e.ID, f)
				}
			}
		})
	}
}

// Model-evaluation microbenchmarks: the analytic core must stay cheap
// enough to sit inside schedulers and auto-tuners.

func BenchmarkModelEnergy(b *testing.B) {
	p := core.FromMachine(machine.GTX580(), machine.Double)
	k := core.KernelAt(1e9, 3)
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += p.Energy(k)
	}
	_ = sink
}

func BenchmarkModelPowerLine(b *testing.B) {
	p := core.FromMachine(machine.GTX580(), machine.Single)
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += p.PowerLine(float64(i%1024) + 0.5)
	}
	_ = sink
}

func BenchmarkModelGreenupClassify(b *testing.B) {
	p := core.FromMachine(machine.FermiTableII(), machine.Double)
	k := core.KernelAt(1e9, 2)
	tr := core.Tradeoff{F: 2, M: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Classify(k, tr) == core.Neither {
			b.Fatal("unexpected")
		}
	}
}

// benchCampaign measures one full campaign at a fixed worker count.
// Compare BenchmarkCampaignSequential against BenchmarkCampaignParallel
// on a multi-core machine to see the pool's speedup; the outputs are
// byte-identical by construction, so the comparison is pure scheduling.
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	cfg := campaign.Default()
	cfg.Points = 7
	cfg.Reps = 10
	cfg.VolumeBytes = 1 << 26
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.RunParallel(context.Background(), cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSequential runs the measurement campaign on a single
// worker — the pre-pool baseline.
func BenchmarkCampaignSequential(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel runs the same campaign with one worker per
// CPU. On a 4+ core machine this is expected to be >= 2x faster than
// BenchmarkCampaignSequential while producing identical artifacts.
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }
