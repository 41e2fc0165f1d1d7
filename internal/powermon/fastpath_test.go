package powermon

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Energy and EnergyDerived integrate each reading as it is taken. The
// oracle below computes the same estimator the straightforward way: it
// records every reading of the measurement first, then averages the
// per-sample powers ΣV·I in a second pass. Both entry points must match
// it bit for bit; any regrouping of the floating-point arithmetic fails
// exact equality.

// sample is one reading across all channels.
type sample struct {
	volts []float64
	amps  []float64
}

// measureTrace samples src for the given duration with the monitor's
// channels and noise settings, drawing the noise from rng, and returns
// every reading.
func measureTrace(m *Monitor, rng *stats.Rand, src Source, duration units.Seconds) ([]sample, error) {
	if duration <= 0 {
		return nil, errors.New("non-positive duration")
	}
	period := 1 / m.cfg.RateHz
	n := int(float64(duration) / period)
	if n < 1 {
		n = 1
	}
	if n > maxSamples {
		return nil, errors.New("sample limit exceeded")
	}
	trace := make([]sample, n)
	for i := range trace {
		ts := units.Seconds((float64(i) + 0.5) * period)
		if ts > duration {
			ts = duration
		}
		truth := float64(src.PowerAt(ts))
		var s sample
		for _, ch := range m.channels {
			v := ch.NominalVolts * rng.RelNoise(m.cfg.VoltNoiseSD)
			chanPower := truth * ch.Share * rng.RelNoise(m.cfg.CurrNoiseSD)
			s.volts = append(s.volts, v)
			s.amps = append(s.amps, chanPower/v)
		}
		trace[i] = s
	}
	return trace, nil
}

// traceEnergy is the paper's estimator over a recorded trace: the mean
// of the sample powers times the duration.
func traceEnergy(trace []sample, duration units.Seconds) units.Joules {
	sum := 0.0
	for _, s := range trace {
		p := 0.0
		for c := range s.volts {
			p += s.volts[c] * s.amps[c]
		}
		sum += p
	}
	return units.Watts(sum / float64(len(trace))).Mul(duration)
}

// noisyMonitor builds a monitor with heavier than default reading noise
// on the given rails.
func noisyMonitor(t *testing.T, chans []Channel, seed int64) *Monitor {
	t.Helper()
	m, err := New(chans, Config{
		Seed:        seed,
		RateHz:      512,
		VoltNoiseSD: 0.002,
		CurrNoiseSD: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleSources are the loads the oracle tests measure: steady, ramped,
// and a noisy simulated kernel run with its power ripple.
func oracleSources(t *testing.T) []Source {
	t.Helper()
	eng, err := sim.New(machine.GTX580(), sim.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(sim.KernelSpec{W: 2e11, Q: 5e10, Precision: machine.Single})
	if err != nil {
		t.Fatal(err)
	}
	return []Source{constSource(180), rampSource{peak: 250, dur: 0.5}, run}
}

// oracleDurations mix long runs, where a last-bit difference in one
// reading is often rounded away in the total, with runs of a few
// samples, where it is not; 1 ms is shorter than one period.
var oracleDurations = []units.Seconds{0.77, 0.3, 0.0137, 0.005, 0.001}

func TestFusedIntegrationMatchesNaive(t *testing.T) {
	// Energy on the monitor's own stream against the oracle on an
	// identically seeded stream: successive measurements must keep
	// matching, so the loop also consumes exactly the oracle's draws.
	for _, chans := range [][]Channel{GPUChannels(), CPUChannels()} {
		m := noisyMonitor(t, chans, 99)
		rng := stats.NewRand(99)
		for i, src := range oracleSources(t) {
			for _, d := range oracleDurations {
				got, err := m.Energy(src, d)
				if err != nil {
					t.Fatal(err)
				}
				trace, err := measureTrace(m, rng, src, d)
				if err != nil {
					t.Fatal(err)
				}
				if want := traceEnergy(trace, d); got != want {
					t.Errorf("%s source %d, %v s: Energy = %v, want %v (bit-exact)", chans[0].Name, i, d, got, want)
				}
			}
		}
	}
}

func TestEnergyDerivedMatchesForkMeasure(t *testing.T) {
	// EnergyDerived against the oracle on the stream the same labels
	// derive from the monitor's seed.
	for _, chans := range [][]Channel{GPUChannels(), CPUChannels()} {
		m := noisyMonitor(t, chans, 7)
		for i, src := range oracleSources(t) {
			for _, labels := range [][]uint64{
				{0x504d4f4e, 0, 3, 17},
				{1, 2, 3},
				{42},
			} {
				for _, d := range oracleDurations {
					got, err := m.EnergyDerived(labels, src, d)
					if err != nil {
						t.Fatal(err)
					}
					trace, err := measureTrace(m, stats.DeriveRand(7, labels...), src, d)
					if err != nil {
						t.Fatal(err)
					}
					if want := traceEnergy(trace, d); got != want {
						t.Errorf("%s source %d, labels %v, %v s: EnergyDerived = %v, want %v (bit-exact)", chans[0].Name, i, labels, d, got, want)
					}
				}
			}
		}
	}
}

func TestEnergyDerivedErrors(t *testing.T) {
	m := noisyMonitor(t, GPUChannels(), 1)
	if _, err := m.EnergyDerived([]uint64{1}, constSource(1), 0); err == nil {
		t.Error("non-positive duration accepted")
	}
	if _, err := m.EnergyDerived([]uint64{1}, constSource(1), 1e12); err == nil {
		t.Error("sample-limit overflow accepted")
	}
}

func TestMeasureSteadyStateAllocs(t *testing.T) {
	// Energy integrates on the fly: no allocation however many samples
	// a run takes.
	m := noisyMonitor(t, GPUChannels(), 11)
	var src Source = constSource(100) // box once: conversion inside the loop would count as an alloc
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Energy(src, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Energy allocates %.1f objects per 512-sample measurement, want 0", allocs)
	}
}

func TestEnergyDerivedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops entries under the race detector")
	}
	m := noisyMonitor(t, GPUChannels(), 13)
	var src Source = constSource(100) // box once: conversion inside the loop would count as an alloc
	labels := []uint64{1, 2, 3}
	if _, err := m.EnergyDerived(labels, src, 1); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.EnergyDerived(labels, src, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("EnergyDerived allocates %.1f objects per call in steady state, want 0", allocs)
	}
}
