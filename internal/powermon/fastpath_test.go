package powermon

import (
	"testing"

	"repro/internal/units"
)

// The memoized single-pass trace integration and the trace-free
// EnergyDerived path replaced straightforward multi-pass code in the
// hot loop. These tests pin the optimized paths bit-identical to the
// pre-optimization reference implementations, reproduced verbatim
// below: any regrouping of the floating-point arithmetic fails exact
// equality.

// naiveAveragePower is the pre-fusion AveragePower: a dedicated pass
// summing Sample.Power.
func naiveAveragePower(t *Trace) units.Watts {
	if len(t.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for i := range t.Samples {
		sum += float64(t.Samples[i].Power())
	}
	return units.Watts(sum / float64(len(t.Samples)))
}

// noisyMonitor builds a monitor with every imperfection enabled so the
// comparison covers noise, gain error, and dropouts.
func noisyMonitor(t *testing.T, seed int64) *Monitor {
	t.Helper()
	m, err := New(GPUChannels(), Config{
		Seed:        seed,
		RateHz:      512,
		VoltNoiseSD: 0.002,
		CurrNoiseSD: 0.01,
		GainError:   0.01,
		DropoutProb: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFusedIntegrationMatchesNaive(t *testing.T) {
	m := noisyMonitor(t, 99)
	for _, src := range []Source{constSource(180), rampSource{peak: 250, dur: 0.5}} {
		tr, err := m.Measure(src, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantAvg := naiveAveragePower(tr)
		wantE := wantAvg.Mul(tr.Duration)

		// Exercise the memo in every call order.
		if got := tr.AveragePower(); got != wantAvg {
			t.Errorf("AveragePower = %v, want %v (bit-exact)", got, wantAvg)
		}
		if got := tr.Energy(); got != wantE {
			t.Errorf("Energy = %v, want %v (bit-exact)", got, wantE)
		}
		// Second calls must serve the memo unchanged.
		if got := tr.AveragePower(); got != wantAvg {
			t.Errorf("memoized AveragePower = %v, want %v", got, wantAvg)
		}
		if got := tr.Energy(); got != wantE {
			t.Errorf("memoized Energy = %v, want %v", got, wantE)
		}
	}
}

func TestEnergyDerivedMatchesForkMeasure(t *testing.T) {
	m := noisyMonitor(t, 7)
	src := rampSource{peak: 300, dur: 1}
	for _, labels := range [][]uint64{
		{0x504d4f4e, 0, 3, 17},
		{1, 2, 3},
		{42},
	} {
		want := func() units.Joules {
			tr, err := m.Fork(labels...).Measure(src, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tr.Energy()
		}()
		got, err := m.EnergyDerived(labels, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("labels %v: EnergyDerived = %v, want Fork.Measure.Energy %v (bit-exact)", labels, got, want)
		}
	}
}

func TestEnergyDerivedErrors(t *testing.T) {
	m := noisyMonitor(t, 1)
	if _, err := m.EnergyDerived([]uint64{1}, constSource(1), 0); err == nil {
		t.Error("non-positive duration accepted")
	}
	if _, err := m.EnergyDerived([]uint64{1}, constSource(1), 1e12); err == nil {
		t.Error("sample-limit overflow accepted")
	}
	// Certain dropout: both paths must fail identically.
	md, err := New(GPUChannels(), Config{Seed: 5, RateHz: 64, DropoutProb: 0.999999999})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := md.EnergyDerived([]uint64{1}, constSource(1), 0.1); err == nil {
		t.Error("total dropout produced an energy")
	}
}

func TestMeasureSteadyStateAllocs(t *testing.T) {
	// Measure preallocates one flat reading block per trace: a constant
	// number of allocations however many samples a run takes.
	m := noisyMonitor(t, 11)
	var src Source = constSource(100) // box once: conversion inside the loop would count as an alloc
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Measure(src, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Trace struct, sample slice, flat readings block, channel copy.
	if allocs > 4 {
		t.Errorf("Measure allocates %.1f objects per 512-sample trace, want <= 4", allocs)
	}
}

func TestEnergyDerivedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops entries under the race detector")
	}
	m := noisyMonitor(t, 13)
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
