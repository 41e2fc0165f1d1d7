package powermon

import (
	"math"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// constSource draws a fixed power.
type constSource float64

func (c constSource) PowerAt(t units.Seconds) units.Watts { return units.Watts(c) }

// rampSource ramps linearly from 0 W at t=0 to peak at t=dur.
type rampSource struct {
	peak float64
	dur  float64
}

func (r rampSource) PowerAt(t units.Seconds) units.Watts {
	return units.Watts(r.peak * float64(t) / r.dur)
}

func noiseless(t *testing.T, chans []Channel, rate float64) *Monitor {
	t.Helper()
	m, err := New(chans, Config{RateHz: rate, VoltNoiseSD: 1e-12, CurrNoiseSD: 1e-12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChannelProfilesValid(t *testing.T) {
	for _, chans := range [][]Channel{GPUChannels(), CPUChannels()} {
		if _, err := New(chans, Config{Seed: 1}); err != nil {
			t.Errorf("profile invalid: %v", err)
		}
		sum := 0.0
		for _, c := range chans {
			sum += c.Share
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("shares sum to %v", sum)
		}
		if len(chans) != 4 {
			t.Errorf("the paper monitors 4 rails, profile has %d", len(chans))
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("no channels accepted")
	}
	bad := []Channel{{Name: "x", NominalVolts: 12, Share: 0.5}}
	if _, err := New(bad, Config{}); err == nil {
		t.Error("shares != 1 accepted")
	}
	if _, err := New([]Channel{{Name: "x", NominalVolts: 0, Share: 1}}, Config{}); err == nil {
		t.Error("zero volts accepted")
	}
	if _, err := New([]Channel{{Name: "x", NominalVolts: 12, Share: 1}}, Config{RateHz: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := New(GPUChannels(), Config{VoltNoiseSD: -1}); err == nil {
		t.Error("negative noise accepted")
	}
	neg := []Channel{{Name: "a", NominalVolts: 12, Share: 1.5}, {Name: "b", NominalVolts: 12, Share: -0.5}}
	if _, err := New(neg, Config{}); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := New(GPUChannels(), Config{GainError: -0.1}); err == nil {
		t.Error("negative gain error accepted")
	}
	if _, err := New(GPUChannels(), Config{GainError: 0.9}); err == nil {
		t.Error("huge gain error accepted")
	}
}

func TestConstantPowerMeasurement(t *testing.T) {
	m := noiseless(t, GPUChannels(), 128)
	tr, err := m.Measure(constSource(200), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 s at 128 Hz: 128 samples, 7.8125 ms apart (the paper's period).
	if len(tr.Samples) != 128 {
		t.Fatalf("samples = %d, want 128", len(tr.Samples))
	}
	gap := float64(tr.Samples[1].T - tr.Samples[0].T)
	if math.Abs(gap-0.0078125) > 1e-12 {
		t.Errorf("sample period = %v, want 7.8125 ms", gap)
	}
	if got := float64(tr.AveragePower()); math.Abs(got-200) > 1e-6 {
		t.Errorf("avg power = %v, want 200", got)
	}
	if got := float64(tr.Energy()); math.Abs(got-200) > 1e-6 {
		t.Errorf("energy = %v, want 200 J", got)
	}
}

func TestRampMeasurement(t *testing.T) {
	// Mean of a 0→100 W ramp is 50 W; mid-interval sampling makes the
	// discrete mean exact for a linear signal.
	m := noiseless(t, CPUChannels(), 256)
	tr, err := m.Measure(rampSource{peak: 100, dur: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(tr.AveragePower()); math.Abs(got-50) > 1e-6 {
		t.Errorf("avg of ramp = %v, want 50", got)
	}
}

func TestPerChannelSplit(t *testing.T) {
	m := noiseless(t, GPUChannels(), 128)
	tr, err := m.Measure(constSource(100), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Samples[0]
	for i, ch := range tr.Channels {
		p := s.Volts[i] * s.Amps[i]
		if math.Abs(p-100*ch.Share) > 1e-6 {
			t.Errorf("channel %s power = %v, want %v", ch.Name, p, 100*ch.Share)
		}
		if math.Abs(s.Volts[i]-ch.NominalVolts) > 0.01*ch.NominalVolts {
			t.Errorf("channel %s volts = %v", ch.Name, s.Volts[i])
		}
	}
}

func TestMeasureErrors(t *testing.T) {
	m := noiseless(t, GPUChannels(), 128)
	if _, err := m.Measure(constSource(1), 0); err == nil {
		t.Error("zero duration accepted")
	}
	tiny, err := New(GPUChannels(), Config{RateHz: 1024, MaxSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Measure(constSource(1), 10); err == nil {
		t.Error("sample-limit overflow accepted")
	}
	// A run shorter than one period still yields one sample.
	tr, err := m.Measure(constSource(42), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 1 {
		t.Errorf("short run samples = %d, want 1", len(tr.Samples))
	}
	if tr.Samples[0].T > tr.Duration {
		t.Error("sample timestamp beyond duration")
	}
}

func TestMeasurementNoiseStatistics(t *testing.T) {
	m, err := New(GPUChannels(), Config{RateHz: 1024, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Measure(constSource(150), 4)
	if err != nil {
		t.Fatal(err)
	}
	var ps []float64
	for i := range tr.Samples {
		ps = append(ps, float64(tr.Samples[i].Power()))
	}
	mean, _ := stats.Mean(ps)
	if math.Abs(mean-150) > 0.5 {
		t.Errorf("noisy mean = %v, want ≈150", mean)
	}
	sd, _ := stats.StdDev(ps)
	if sd == 0 {
		t.Error("noise should make samples vary")
	}
	if sd > 3 {
		t.Errorf("noise too large: sd = %v", sd)
	}
}

func TestMeasureSimRunEndToEnd(t *testing.T) {
	// Full §IV-A pipeline: run a kernel, monitor it, compare the
	// monitor's energy to the simulator's ground truth.
	mach := machine.GTX580()
	eng, err := sim.New(mach, sim.Config{Seed: 2, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(sim.KernelSpec{W: 5e11, Q: 1e11, Precision: machine.Double})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(GPUChannels(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := mon.Measure(run, run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(tr.Energy()), float64(run.Energy); stats.RelErr(got, want) > 0.02 {
		t.Errorf("monitored energy %v vs true %v", got, want)
	}
	if got, want := float64(tr.AveragePower()), float64(run.AvgPower); stats.RelErr(got, want) > 0.02 {
		t.Errorf("monitored power %v vs true %v", got, want)
	}
}

func TestSamplingRateAblation(t *testing.T) {
	// Higher sampling rates reduce integration error for a non-constant
	// signal — the ablation DESIGN.md calls out.
	src := rampSource{peak: 300, dur: 0.311} // duration not a multiple of periods
	want := 300.0 / 2 * 0.311                // exact energy of the ramp
	var errAt []float64
	for _, rate := range []float64{8, 1024} {
		m := noiseless(t, GPUChannels(), rate)
		tr, err := m.Measure(src, units.Seconds(0.311))
		if err != nil {
			t.Fatal(err)
		}
		errAt = append(errAt, stats.RelErr(float64(tr.Energy()), want))
	}
	if errAt[1] >= errAt[0] {
		t.Errorf("1024 Hz error %v should beat 8 Hz error %v", errAt[1], errAt[0])
	}
	if errAt[1] > 0.01 {
		t.Errorf("1024 Hz error too large: %v", errAt[1])
	}
}

func TestEmptyTraceDefaults(t *testing.T) {
	tr := &Trace{}
	if tr.AveragePower() != 0 || tr.Energy() != 0 {
		t.Error("empty trace should report zero power/energy")
	}
}

func TestDropoutInjection(t *testing.T) {
	// 15% sample dropout: readings go missing but the averaging
	// pipeline stays unbiased because absences are skipped, not zeroed.
	m, err := New(GPUChannels(), Config{
		RateHz: 1024, Seed: 4, DropoutProb: 0.15,
		VoltNoiseSD: 1e-12, CurrNoiseSD: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Measure(constSource(180), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped == 0 {
		t.Fatal("expected dropped samples at 15% dropout")
	}
	if len(tr.Samples)+tr.Dropped != 2048 {
		t.Errorf("samples %d + dropped %d != 2048", len(tr.Samples), tr.Dropped)
	}
	if got := float64(tr.AveragePower()); math.Abs(got-180) > 0.5 {
		t.Errorf("avg power with dropouts = %v, want ≈180", got)
	}
	if got := float64(tr.Energy()); math.Abs(got-360) > 1 {
		t.Errorf("energy with dropouts = %v, want ≈360 J", got)
	}
}

func TestDropoutConfigValidation(t *testing.T) {
	if _, err := New(GPUChannels(), Config{DropoutProb: -0.1}); err == nil {
		t.Error("negative dropout accepted")
	}
	if _, err := New(GPUChannels(), Config{DropoutProb: 1}); err == nil {
		t.Error("certain dropout accepted")
	}
}

func TestTotalDropoutFails(t *testing.T) {
	// A very short run with heavy dropout can lose every sample; the
	// monitor must report a failure instead of a zero-energy trace.
	m, err := New(GPUChannels(), Config{RateHz: 128, Seed: 11, DropoutProb: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for trial := 0; trial < 50; trial++ {
		if _, err := m.Measure(constSource(10), 0.001); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Error("expected total-dropout failures on single-sample runs")
	}
}

func TestForkReproducibleAndIndependent(t *testing.T) {
	mon, err := New(GPUChannels(), Config{Seed: 9, RateHz: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := constSource(200)
	a, err := mon.Fork(1, 2).Measure(src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mon.Fork(1, 2).Measure(src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		for c := range a.Samples[i].Volts {
			if a.Samples[i].Volts[c] != b.Samples[i].Volts[c] || a.Samples[i].Amps[c] != b.Samples[i].Amps[c] {
				t.Fatalf("sample %d channel %d: forks with equal labels diverge", i, c)
			}
		}
	}
	c1, err := mon.Fork(2, 1).Measure(src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		for c := range a.Samples[i].Volts {
			same = same && a.Samples[i].Volts[c] == c1.Samples[i].Volts[c]
		}
	}
	if same {
		t.Error("forks with different labels produced identical traces")
	}
}

func TestForkDoesNotPerturbParentStream(t *testing.T) {
	// Two identically seeded monitors; one forks between measurements.
	// The parents' own traces must stay in lockstep.
	mk := func() *Monitor {
		m, err := New(CPUChannels(), Config{Seed: 5, RateHz: 512})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	src := constSource(120)
	for i := 0; i < 3; i++ {
		if _, err := b.Fork(uint64(i)).Measure(src, 0.03); err != nil {
			t.Fatal(err)
		}
		ta, err := a.Measure(src, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Measure(src, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if float64(ta.Energy()) != float64(tb.Energy()) {
			t.Fatalf("round %d: forking perturbed the parent's stream", i)
		}
	}
}

func TestForkInheritsCalibration(t *testing.T) {
	// A fork shares its parent's hidden per-channel gain error: with the
	// sample noise off, both misread a known constant load by the same
	// systematic bias, which averaging does not remove.
	mon, err := New(GPUChannels(), Config{
		Seed: 77, RateHz: 1024, GainError: 0.05,
		VoltNoiseSD: 1e-9, CurrNoiseSD: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := mon.Measure(constSource(200), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := mon.Fork(42).Measure(constSource(200), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	biased := float64(parent.AveragePower())
	if math.Abs(biased-200) < 0.5 {
		t.Skipf("gain draw happened to be tiny (%v); rare but possible", biased)
	}
	if got := float64(fork.AveragePower()); math.Abs(got-biased) > 1e-3 {
		t.Errorf("fork measured %v W, parent %v W: the fork lost the parent's gain error", got, biased)
	}
}

func TestConcurrentForksAreRaceFree(t *testing.T) {
	mon, err := New(GPUChannels(), Config{Seed: 11, RateHz: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := constSource(250)
	var wg sync.WaitGroup
	energies := make([]float64, 16)
	for i := range energies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := mon.Fork(uint64(i%4)).Measure(src, 0.05)
			if err != nil {
				t.Error(err)
				return
			}
			energies[i] = float64(tr.Energy())
		}(i)
	}
	wg.Wait()
	// Forks with equal labels must agree even when raced.
	for i := range energies {
		if energies[i] != energies[i%4] {
			t.Errorf("fork %d diverged from its label twin", i)
		}
	}
}
