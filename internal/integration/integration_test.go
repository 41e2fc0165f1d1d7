// Package integration holds cross-package end-to-end scenarios: the
// complete loops a user of this repository would run, wired together
// exactly as the commands wire them, with assertions at each seam.
package integration

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fmm"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/powermon"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
)

// The headline loop: run a measurement campaign against the simulated
// GTX 580, take the *fitted* machine it produces, and use that fitted
// model to predict fresh measurements made on the ground-truth
// simulator. This is what a user does with real hardware: fit once,
// predict forever.
func TestFittedModelPredictsFreshMeasurements(t *testing.T) {
	cfg := campaign.Default()
	cfg.Machines = []string{"gtx580"}
	cfg.Reps = 25
	cfg.Points = 9
	cfg.VolumeBytes = 1 << 27
	cfg.Seed = 1234
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fitted := res.Machines[0].Fitted

	// Fresh measurements with a different seed.
	truth := machine.GTX580()
	eng, err := sim.New(truth, sim.DefaultConfig(987))
	if err != nil {
		t.Fatal(err)
	}
	p := core.FromMachine(fitted, machine.Double)
	for _, i := range []float64{0.5, 2, 8} {
		k := core.KernelAt(1e9, i)
		runs, err := eng.RunRepeated(sim.KernelSpec{
			W: k.W, Q: k.Q, Precision: machine.Double, Tuning: eng.OptimalTuning(),
		}, 20)
		if err != nil {
			t.Fatal(err)
		}
		_, meanE, _, err := sim.Aggregate(runs)
		if err != nil {
			t.Fatal(err)
		}
		// Predict with the fitted coefficients at the *measured* time
		// (the eq. 2 usage pattern).
		mt, _, _, _ := sim.Aggregate(runs)
		pred := p.TwoLevelEnergyAt(k, float64(mt))
		if re := stats.RelErr(pred, float64(meanE)); re > 0.08 {
			t.Errorf("I=%v: fitted model predicts %.4g J, measured %.4g J (%.1f%% off)",
				i, pred, float64(meanE), re*100)
		}
	}
}

// The measurement stack agrees with itself: engine observables, the
// sampled power monitor, and the analytic model line up on one run.
func TestMeasurementStackConsistency(t *testing.T) {
	m := machine.CoreI7950()
	eng, err := sim.New(m, sim.Config{Seed: 5, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	p := core.FromMachine(m, machine.Single)
	k := core.KernelAt(5e10, 2)
	run, err := eng.Run(sim.KernelSpec{W: k.W, Q: k.Q, Precision: machine.Single})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := powermon.New(powermon.CPUChannels(), powermon.Config{Seed: 6, RateHz: 1024})
	if err != nil {
		t.Fatal(err)
	}
	monE, err := mon.Energy(run, run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	// Three independent energy numbers: model, engine, monitor.
	modelE := p.Energy(k)
	if re := stats.RelErr(float64(run.Energy), modelE); re > 1e-9 {
		t.Errorf("engine vs model: %v", re)
	}
	if re := stats.RelErr(float64(monE), modelE); re > 0.02 {
		t.Errorf("monitor vs model: %v", re)
	}
}

// The FMM study's counter pipeline is consistent with the standalone
// kernel: the traced DRAM footprint covers the particle data the actual
// interaction kernel reads.
func TestFMMTrafficCoversKernelFootprint(t *testing.T) {
	pts := fmm.UniformPoints(1500, 3)
	tree, err := fmm.Build(pts, 96, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tree.BuildULists()
	pairs, err := tree.InteractF32(u)
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Fatal("no interactions")
	}
	res, err := fmm.RunStudy(fmm.StudyConfig{
		Seed: 3, N: 1500, LeafSize: 96,
		Variants: []fmm.Variant{{Shape: fmm.Shape{Layout: fmm.SoA, Staging: fmm.CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// W from the study equals 11 flops per structural pair of ITS OWN
	// instance; cross-check the magnitude against the hand-built one.
	if res.W < float64(pairs)*11/2 || res.W > float64(pairs)*11*2 {
		t.Errorf("study W %.3g not within 2× of kernel pairs × 11 = %.3g", res.W, float64(pairs)*11)
	}
	// Counter-derived DRAM reads cover the 16-byte records of all
	// points at least once.
	footprint := 1500.0 * 16
	dram := res.Results[0].Traffic.DRAMReadBytes
	if dram < footprint {
		t.Errorf("DRAM reads %.3g below compulsory footprint %.3g", dram, footprint)
	}
}

// The validation lattice holds for the fitted machine too: a model
// built purely from fitted coefficients still lower-bounds time and
// upper-bounds power on fresh ground-truth measurements.
func TestValidationHoldsForCampaignOutput(t *testing.T) {
	s, err := validate.Run(validate.Config{Seed: 777, Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.TimeBoundViolations != 0 || s.PowerBoundViolations != 0 {
		t.Errorf("bound violations: time %d, power %d", s.TimeBoundViolations, s.PowerBoundViolations)
	}
}

// Auto-tuned sweeps and the §IV-B peaks agree: the tuner's best
// configuration reproduces the documented achieved rates end to end.
func TestTunerPeaksRoundTrip(t *testing.T) {
	m := machine.GTX580()
	eng, err := sim.New(m, sim.DefaultConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	tuning, quality, err := microbench.AutoTune(eng, machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	if quality < 0.99 {
		t.Fatalf("tuner quality %v", quality)
	}
	gf, gb, err := microbench.Peaks(eng, machine.Double, tuning)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(gf, 196) > 0.05 || stats.RelErr(gb, 170) > 0.05 {
		t.Errorf("tuned peaks %v GFLOP/s, %v GB/s; want ≈196, ≈170", gf, gb)
	}
}
