package dvfs

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

// randMachine builds a synthetic but valid machine from random model
// parameters, with the given curve attached.
func randMachine(rng *rand.Rand, curve []machine.OperatingPoint) *machine.Machine {
	peak := 20e9 * math.Exp2(4*rng.Float64())    // 20–320 Gflop/s
	bw := 10e9 * math.Exp2(4*rng.Float64())      // 10–160 GB/s
	epsF := 50e-12 * math.Exp2(4*rng.Float64())  // 50–800 pJ/flop
	epsM := 100e-12 * math.Exp2(4*rng.Float64()) // 0.1–1.6 nJ/byte
	pi0 := 5 + 295*rng.Float64()                 // 5–300 W
	idle := pi0 * rng.Float64()                  // below π0
	pp := machine.PrecisionParams{PeakFlops: peak, EnergyPerFlop: units.Joules(epsF), AchievedFlopFrac: 1, AchievedBWFrac: 1}
	return &machine.Machine{
		Name:            "prop",
		Bandwidth:       bw,
		EnergyPerByte:   units.Joules(epsM),
		ConstantPower:   units.Watts(pi0),
		IdlePower:       units.Watts(idle),
		RatedPower:      units.Watts(pi0 * 2),
		FastMemory:      1 << 20,
		SP:              pp,
		DP:              pp,
		OperatingPoints: curve,
	}
}

// randLaw samples a valid scaling law: the floor is drawn at or above
// the convexity bound κ ≥ 1 − 1/(1+2(1−VMin)).
func randLaw(rng *rand.Rand) machine.ScalingLaw {
	vmin := 0.6 + 0.39*rng.Float64()
	kmin := 1 - 1/(1+2*(1-vmin))
	return machine.ScalingLaw{VMin: vmin, Pi0Floor: kmin + (1-kmin)*rng.Float64()}
}

// randScales samples 3–8 strictly increasing clock fractions ending at 1.
func randScales(rng *rand.Rand) []float64 {
	n := 3 + rng.Intn(6)
	set := map[float64]bool{1: true}
	for len(set) < n {
		// Snap to 0.01 so the synthesized "%.2fx" names stay unique.
		set[math.Round(100*(0.2+0.75*rng.Float64()))/100] = true
	}
	out := make([]float64, 0, n)
	for s := range set {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestPropertyOptFreqMonotoneAndCrossoverExact is the 300-trial
// property test: on every synthesized curve (1) the energy-optimal
// frequency is monotone non-decreasing in intensity, and (2)
// race-to-idle wins exactly when π0 is at or above the closed-form
// crossover.
func TestPropertyOptFreqMonotoneAndCrossoverExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	grid := core.LogGrid(1.0/32, 128, 33)
	for trial := 0; trial < 300; trial++ {
		law := randLaw(rng)
		if err := law.Validate(); err != nil {
			t.Fatalf("trial %d: sampled law invalid: %v", trial, err)
		}
		curve, err := law.Curve(randScales(rng))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := randMachine(rng, curve)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: synthetic machine invalid: %v", trial, err)
		}

		// (1) Monotonicity of the optimal clock in intensity.
		oc := optFreqCurve(m, "prop", machine.Double, 1e9, grid)
		if !oc.Monotone {
			t.Fatalf("trial %d: optimal frequency not monotone: %+v", trial, oc.Points)
		}
		prev := 0.0
		for _, p := range oc.Points {
			if p.FreqScale < prev {
				t.Fatalf("trial %d: monotone flag true but freq scale decreases", trial)
			}
			prev = p.FreqScale
		}

		// (2) Exactness of the race-to-idle crossover on a compute-bound
		// kernel, checked on both sides of the threshold.
		p := core.FromMachine(m, machine.Double)
		k := core.KernelAt(1e9, (1.5+8*rng.Float64())*p.BalanceTime())
		idleW := 1.5 * p.Pi0 * rng.Float64()
		thr, ok := Crossover(p, curve, k, idleW)
		if !ok {
			t.Fatalf("trial %d: crossover not exact on a compute-bound kernel", trial)
		}
		if math.IsInf(thr, 1) {
			t.Fatalf("trial %d: infinite crossover on a compute-bound kernel", trial)
		}
		deadline := p.AtOperatingPoint(curve[0]).Time(k)
		raceWins := func(pi0 float64) bool {
			pp := p
			pp.Pi0 = pi0
			raceE, err := PolicyEnergy(pp, machine.BasePoint(), k, idleW, deadline)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, op := range curve {
				if op.IsBase() {
					continue
				}
				paceE, err := PolicyEnergy(pp, op, k, idleW, deadline)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if raceE > paceE*(1+1e-12) {
					return false
				}
			}
			return true
		}
		if thr > 0 {
			if !raceWins(thr * 1.01) {
				t.Fatalf("trial %d: π0 above crossover %g but race loses", trial, thr)
			}
			if raceWins(thr * 0.99) {
				t.Fatalf("trial %d: π0 below crossover %g but race wins", trial, thr)
			}
		} else if !raceWins(0) {
			t.Fatalf("trial %d: zero crossover but race loses at π0=0", trial)
		}
		// The machine's own π0 must classify consistently too (skip
		// knife-edge draws).
		if math.Abs(p.Pi0-thr) > 1e-6*(thr+1) {
			if got, want := raceWins(p.Pi0), p.Pi0 >= thr; got != want {
				t.Fatalf("trial %d: race wins %v at π0=%g, crossover %g", trial, got, p.Pi0, thr)
			}
		}
	}
}

func TestCrossoverMemoryBoundIsInfinite(t *testing.T) {
	curve := machine.DefaultCurve()
	m, _ := machine.Find("gtx580")
	p := core.FromMachine(m, machine.Double)
	// Memory-bound even at the slowest point: I ≤ s_min·Bτ.
	k := core.KernelAt(1e9, 0.5*curve[0].FreqScale*p.BalanceTime())
	thr, ok := Crossover(p, curve, k, 0)
	if !ok {
		t.Fatal("memory-bound crossover should still be expressible")
	}
	if !math.IsInf(thr, 1) {
		t.Fatalf("memory-bound crossover = %g, want +Inf (pacing is free speed)", thr)
	}
}

func TestPolicyEnergyDeadline(t *testing.T) {
	m, _ := machine.Find("gtx580")
	p := core.FromMachine(m, machine.Double)
	k := core.KernelAt(1e9, 4*p.BalanceTime())
	slow := m.OperatingPoints[0]
	tooTight := p.AtOperatingPoint(slow).Time(k) * 0.5
	if _, err := PolicyEnergy(p, slow, k, 0, tooTight); err == nil {
		t.Fatal("PolicyEnergy accepted an unmeetable deadline")
	}
	// Race at exactly its own runtime: no idle tail.
	raceT := p.Time(k)
	e, err := PolicyEnergy(p, machine.BasePoint(), k, 1e6, raceT)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e, p.Energy(k); math.Abs(got/want-1) > 1e-12 {
		t.Fatalf("zero idle tail energy %g, want %g", got, want)
	}
}

// TestDispatchScalarColumnarAgree pins that the scalar Dispatch scan
// and the columnar dispatch table pick the same platform at every grid
// intensity.
func TestDispatchScalarColumnarAgree(t *testing.T) {
	grid := core.LogGrid(1.0/16, 64, 41)
	table, err := dispatchTable(grid, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	plats, err := DefaultPlatforms()
	if err != nil {
		t.Fatal(err)
	}
	for j, intensity := range grid {
		k := core.KernelAt(1e9, intensity)
		want := plats[Dispatch(plats, k)].Label
		if got := table.Choices[j].Platform; got != want {
			t.Fatalf("I=%g: columnar chose %s, scalar chose %s", intensity, got, want)
		}
	}
}

func TestDispatchPrefersDownclockAtLowIntensityFullClockAtHigh(t *testing.T) {
	plats, err := DefaultPlatforms()
	if err != nil {
		t.Fatal(err)
	}
	low := plats[Dispatch(plats, core.KernelAt(1e9, 0.125))]
	high := plats[Dispatch(plats, core.KernelAt(1e9, 32))]
	if low.Point == "1.00x" {
		t.Fatalf("memory-bound work dispatched to full clock (%s)", low.Label)
	}
	if high.Label != "gtx580@1.00x" {
		t.Fatalf("compute-bound work dispatched to %s, want gtx580@1.00x", high.Label)
	}
}

func TestStudyShape(t *testing.T) {
	st, err := Run(context.Background(), Config{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	nm := len(machine.DVFSCatalogKeys())
	if len(st.OptFreq) != 2*nm {
		t.Fatalf("%d optfreq curves, want %d", len(st.OptFreq), 2*nm)
	}
	if len(st.RaceIdle) != 2*nm {
		t.Fatalf("%d raceidle cases, want %d", len(st.RaceIdle), 2*nm)
	}
	for i := range st.RaceIdle {
		r := &st.RaceIdle[i]
		if !r.CrossoverOk {
			t.Fatalf("%s/%s: crossover not exact", r.Machine, r.Scenario)
		}
		if got, want := r.RaceWins, r.Pi0W >= r.CrossoverW; got != want {
			t.Fatalf("%s/%s: race wins %v but π0=%g vs crossover %g", r.Machine, r.Scenario, got, r.Pi0W, r.CrossoverW)
		}
		if r.MeasuredRelErr > 0.02 {
			t.Fatalf("%s/%s: powermon deviates %.2f%% from the closed form", r.Machine, r.Scenario, 100*r.MeasuredRelErr)
		}
	}
	for i := range st.OptFreq {
		if !st.OptFreq[i].Monotone {
			t.Fatalf("%s/%s: optimal frequency not monotone", st.OptFreq[i].Machine, st.OptFreq[i].Precision)
		}
	}
	if len(st.Dispatch.Choices) != len(st.Intensities) {
		t.Fatalf("dispatch table has %d choices, want %d", len(st.Dispatch.Choices), len(st.Intensities))
	}
	// Charts render for a populated study.
	for _, ch := range []interface{ RenderASCII() (string, error) }{
		OptFreqChart(&st.OptFreq[0]), RaceIdleChart(st), DispatchChart(st),
	} {
		if _, err := ch.RenderASCII(); err != nil {
			t.Fatal(err)
		}
	}
}
