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

// timedSource draws a fixed power and records every time the monitor
// samples it, so tests can see the sampling schedule.
type timedSource struct {
	watts float64
	at    []units.Seconds
}

func (s *timedSource) PowerAt(t units.Seconds) units.Watts {
	s.at = append(s.at, t)
	return units.Watts(s.watts)
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
}

func TestConstantPowerMeasurement(t *testing.T) {
	m := noiseless(t, GPUChannels(), 128)
	src := &timedSource{watts: 200}
	e, err := m.Energy(src, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 s at 128 Hz: 128 samples, 7.8125 ms apart (the paper's period),
	// the first at mid-period.
	if len(src.at) != 128 {
		t.Fatalf("samples = %d, want 128", len(src.at))
	}
	if got := float64(src.at[0]); math.Abs(got-0.0078125/2) > 1e-12 {
		t.Errorf("first sample at %v, want 3.90625 ms", got)
	}
	gap := float64(src.at[1] - src.at[0])
	if math.Abs(gap-0.0078125) > 1e-12 {
		t.Errorf("sample period = %v, want 7.8125 ms", gap)
	}
	if got := float64(e); math.Abs(got-200) > 1e-6 {
		t.Errorf("energy = %v, want 200 J", got)
	}
}

func TestRampMeasurement(t *testing.T) {
	// Mean of a 0→100 W ramp is 50 W; mid-interval sampling makes the
	// discrete mean exact for a linear signal.
	m := noiseless(t, CPUChannels(), 256)
	e, err := m.Energy(rampSource{peak: 100, dur: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(e) / 2; math.Abs(got-50) > 1e-6 {
		t.Errorf("avg of ramp = %v, want 50", got)
	}
}

func TestMeasureErrors(t *testing.T) {
	m := noiseless(t, GPUChannels(), 128)
	if _, err := m.Energy(constSource(1), 0); err == nil {
		t.Error("zero duration accepted")
	}
	// At 1024 Hz an 80-minute run needs more than the 4 Mi sample limit.
	fast := noiseless(t, GPUChannels(), 1024)
	if _, err := fast.Energy(constSource(1), 80*60); err == nil {
		t.Error("sample-limit overflow accepted")
	}
	// A run shorter than one period still yields one sample, taken at
	// the end of the run rather than past it.
	src := &timedSource{watts: 42}
	e, err := m.Energy(src, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.at) != 1 {
		t.Fatalf("short run samples = %d, want 1", len(src.at))
	}
	if src.at[0] != 0.001 {
		t.Errorf("short run sampled at %v, want the run's end 0.001", src.at[0])
	}
	if got := float64(e); math.Abs(got-0.042) > 1e-9 {
		t.Errorf("short run energy = %v, want 0.042 J", got)
	}
}

func TestMeasurementNoiseStatistics(t *testing.T) {
	// Reading noise makes repeated measurements of one steady load
	// differ, but the per-sample errors average out: the measured mean
	// power stays within a fraction of a watt of the truth.
	m, err := New(GPUChannels(), Config{RateHz: 1024, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const dur = 0.25
	var ps []float64
	for i := uint64(0); i < 64; i++ {
		e, err := m.EnergyDerived([]uint64{i}, constSource(150), dur)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, float64(e)/dur)
	}
	mean, _ := stats.Mean(ps)
	if math.Abs(mean-150) > 0.5 {
		t.Errorf("noisy mean = %v, want ≈150", mean)
	}
	sd, _ := stats.StdDev(ps)
	if sd == 0 {
		t.Error("noise should make measurements vary")
	}
	if sd > 0.2 {
		t.Errorf("noise too large: sd of mean power = %v W", sd)
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
	e, err := mon.Energy(run, run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(e), float64(run.Energy); stats.RelErr(got, want) > 0.02 {
		t.Errorf("monitored energy %v vs true %v", got, want)
	}
	if got, want := float64(e)/float64(run.Duration), float64(run.AvgPower); stats.RelErr(got, want) > 0.02 {
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
		e, err := m.Energy(src, units.Seconds(0.311))
		if err != nil {
			t.Fatal(err)
		}
		errAt = append(errAt, stats.RelErr(float64(e), want))
	}
	if errAt[1] >= errAt[0] {
		t.Errorf("1024 Hz error %v should beat 8 Hz error %v", errAt[1], errAt[0])
	}
	if errAt[1] > 0.01 {
		t.Errorf("1024 Hz error too large: %v", errAt[1])
	}
}

// The Fork tests hold EnergyDerived to the contract of a forked noise
// stream: keyed by labels, reproducible, and independent of the
// monitor's own stream.

func TestForkReproducibleAndIndependent(t *testing.T) {
	mon, err := New(GPUChannels(), Config{Seed: 9, RateHz: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := rampSource{peak: 200, dur: 0.05}
	a, err := mon.EnergyDerived([]uint64{1, 2}, src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mon.EnergyDerived([]uint64{1, 2}, src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal labels measured %v and %v", a, b)
	}
	c, err := mon.EnergyDerived([]uint64{2, 1}, src, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different labels produced identical measurements")
	}
}

func TestForkDoesNotPerturbParentStream(t *testing.T) {
	// Two identically seeded monitors; one takes derived measurements
	// between its own. The monitors' own measurements must stay in
	// lockstep.
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
		if _, err := b.EnergyDerived([]uint64{uint64(i)}, src, 0.03); err != nil {
			t.Fatal(err)
		}
		ea, err := a.Energy(src, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.Energy(src, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("round %d: a derived measurement perturbed the monitor's stream", i)
		}
	}
}

func TestConcurrentForksAreRaceFree(t *testing.T) {
	mon, err := New(GPUChannels(), Config{Seed: 11, RateHz: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := constSource(250)
	var wg sync.WaitGroup
	energies := make([]units.Joules, 16)
	for i := range energies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := mon.EnergyDerived([]uint64{uint64(i % 4)}, src, 0.05)
			if err != nil {
				t.Error(err)
				return
			}
			energies[i] = e
		}(i)
	}
	wg.Wait()
	// Equal labels must agree even when raced.
	for i := range energies {
		if energies[i] != energies[i%4] {
			t.Errorf("measurement %d diverged from its label twin", i)
		}
	}
}
