package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestDVFSMatchesSimulator(t *testing.T) {
	// The analytic E(s)/T(s) must agree with the execution simulator's
	// ideal mode at every frequency scale.
	m := machine.GTX580()
	m.PowerCap = 0 // isolate DVFS from throttling
	p := FromMachine(m, machine.Double)
	eng, err := sim.New(m, sim.Config{Seed: 1, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	k := KernelAt(1e10, 8)
	for _, s := range []float64{0.3, 0.5, 0.75, 1} {
		r, err := eng.Run(sim.KernelSpec{W: k.W, Q: k.Q, Precision: machine.Double, FreqScale: s})
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelErr(float64(r.Duration), p.TimeAtFreq(k, s)) > 1e-12 {
			t.Errorf("s=%v: T sim %v vs model %v", s, r.Duration, p.TimeAtFreq(k, s))
		}
		if stats.RelErr(float64(r.Energy), p.EnergyAtFreq(k, s)) > 1e-12 {
			t.Errorf("s=%v: E sim %v vs model %v", s, r.Energy, p.EnergyAtFreq(k, s))
		}
	}
}

func TestDVFSFullClockRecoversBaseModel(t *testing.T) {
	p := FromMachine(machine.CoreI7950(), machine.Single)
	k := KernelAt(1e9, 2)
	if p.TimeAtFreq(k, 1) != p.Time(k) {
		t.Error("T(1) != T")
	}
	if math.Abs(p.EnergyAtFreq(k, 1)-p.Energy(k)) > 1e-12*p.Energy(k) {
		t.Error("E(1) != E")
	}
	if stats.RelErr(p.PowerAtFreq(k, 1), p.AveragePower(k)) > 1e-12 {
		t.Error("P(1) != P")
	}
}

// TestAtOperatingPointScalesParameters pins the production pinning path
// on every point of every DVFS catalog curve at both precisions: τflop,
// εflop and π0 scale by their factors, the power cap never moves, τmem
// stays fixed where its scale is 1, and BasePoint is the identity bit
// for bit.
func TestAtOperatingPointScalesParameters(t *testing.T) {
	rel := func(got, want float64) float64 { return math.Abs(got/want - 1) }
	for _, key := range machine.DVFSCatalogKeys() {
		m, _ := machine.Find(key)
		for _, prec := range []machine.Precision{machine.Single, machine.Double} {
			base := FromMachine(m, prec)
			if id := base.AtOperatingPoint(machine.BasePoint()); id != base {
				t.Errorf("%s/%v: base point is not the identity: %+v vs %+v", key, prec, id, base)
			}
			for _, op := range m.OperatingPoints {
				p := base.AtOperatingPoint(op)
				at := fmt.Sprintf("%s/%v at %s", key, prec, op.Name)
				// The compute clock sets the flop rate: τflop·s is the
				// full-clock τflop.
				if rel(p.TauFlop*op.FreqScale, base.TauFlop) > 1e-12 {
					t.Errorf("%s: τflop %g at clock %g, base %g", at, p.TauFlop, op.FreqScale, base.TauFlop)
				}
				if rel(p.EpsFlop, base.EpsFlop*op.EpsFlopScale) > 1e-12 {
					t.Errorf("%s: εflop %g, want %g", at, p.EpsFlop, base.EpsFlop*op.EpsFlopScale)
				}
				if rel(p.Pi0, base.Pi0*op.Pi0Scale) > 1e-12 {
					t.Errorf("%s: π0 %g, want %g", at, p.Pi0, base.Pi0*op.Pi0Scale)
				}
				if p.PowerCap != base.PowerCap {
					t.Errorf("%s: power cap moved with the clock: %g vs %g", at, p.PowerCap, base.PowerCap)
				}
				if op.TauMemScale == 1 && p.TauMem != base.TauMem {
					t.Errorf("%s: τmem moved with the compute clock: %g vs %g", at, p.TauMem, base.TauMem)
				}
			}
		}
	}
}

func TestCriticalFreqScaleCondition(t *testing.T) {
	// Race-to-halt is DVFS-optimal exactly when ε0 ≥ 2·εflop.
	p := FromMachine(machine.GTX580(), machine.Double)
	// GTX 580 double: ε0 = 122/197.63e9 ≈ 617 pJ, εflop = 212 pJ:
	// ε0 > 2εflop, so s* > 1.
	if p.CriticalFreqScale() <= 1 {
		t.Errorf("s* = %v, want > 1 for the GTX 580 double case", p.CriticalFreqScale())
	}
	k := KernelAt(1e10, 1e6) // strongly compute-bound
	rth, err := p.RaceToHaltOptimalDVFS(k, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !rth {
		t.Error("race-to-halt should be DVFS-optimal at π0 = 122 W")
	}
	// π0 = 0: the slowest clock wins.
	p0 := p
	p0.Pi0 = 0
	if p0.CriticalFreqScale() != 0 {
		t.Errorf("s* with π0=0 = %v, want 0", p0.CriticalFreqScale())
	}
	s, _, err := p0.OptimalFreqScale(k, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0.25 {
		t.Errorf("π0=0 optimum = %v, want sMin", s)
	}
}

func TestOptimalFreqScaleInterior(t *testing.T) {
	// Construct a machine whose optimum is interior: ε0 < 2εflop but
	// ε0 > 2εflop·sMin³.
	p := Params{
		TauFlop: 1e-12,
		TauMem:  1e-12,
		EpsFlop: 100e-12,
		EpsMem:  100e-12,
		Pi0:     50, // ε0 = 50 pJ < 200 pJ = 2εflop → s* = (0.25)^(1/3) ≈ 0.63
	}
	k := KernelAt(1e9, 1e9) // compute-bound at any s
	s, e, err := p.OptimalFreqScale(k, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cbrt(0.25)
	if math.Abs(s-want) > 1e-12 {
		t.Errorf("optimum = %v, want %v", s, want)
	}
	// It really is a minimum: neighbours cost more.
	for _, ds := range []float64{-0.05, 0.05} {
		if p.EnergyAtFreq(k, s+ds) <= e {
			t.Errorf("s=%v not a local minimum", s)
		}
	}
}

func TestOptimalFreqScaleErrors(t *testing.T) {
	p := FromMachine(machine.GTX580(), machine.Single)
	k := KernelAt(1e9, 1)
	if _, _, err := p.OptimalFreqScale(k, 0); err == nil {
		t.Error("sMin=0 accepted")
	}
	if _, _, err := p.OptimalFreqScale(k, 1.5); err == nil {
		t.Error("sMin>1 accepted")
	}
	if _, _, err := p.OptimalFreqScale(Kernel{W: 0, Q: 1}, 0.5); err == nil {
		t.Error("zero-work kernel accepted")
	}
}

func TestMemoryBoundKernelIgnoresModestDownclock(t *testing.T) {
	// A memory-bound kernel's time is set by Q·τmem; downclocking the
	// compute side within the memory-bound regime costs no time and
	// saves flop energy, so the optimum is below 1.
	p := FromMachine(machine.GTX580(), machine.Single)
	k := KernelAt(1e9, 0.5) // far below Bτ ≈ 8.2
	s, _, err := p.OptimalFreqScale(k, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 {
		t.Errorf("memory-bound optimum = %v, want < 1", s)
	}
	if p.TimeAtFreq(k, s) != p.Time(k) {
		t.Error("downclocking within the memory-bound regime must not cost time")
	}
}

func TestPropOptimalBeatsGridSearch(t *testing.T) {
	// The closed-form candidate set always matches a dense grid search.
	f := func(a, b, c, ri, rmin float64) bool {
		p := randParams(a, b, c)
		k := KernelAt(1e9, randIntensity(ri))
		sMin := 0.05 + 0.9*math.Abs(math.Mod(rmin, 1))
		s, e, err := p.OptimalFreqScale(k, sMin)
		if err != nil {
			return false
		}
		if s < sMin || s > 1 {
			return false
		}
		for g := 0; g <= 200; g++ {
			sg := sMin + (1-sMin)*float64(g)/200
			if p.EnergyAtFreq(k, sg) < e*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropEnergyAtFreqDecomposition(t *testing.T) {
	// E(s) parts: flop term scales as s², memory term constant,
	// constant term equals π0·T(s).
	f := func(a, b, c, ri, rs float64) bool {
		p := randParams(a, b, c)
		k := KernelAt(1e9, randIntensity(ri))
		s := 0.1 + 0.9*math.Abs(math.Mod(rs, 1))
		e := p.EnergyAtFreq(k, s)
		parts := k.W*p.EpsFlop*s*s + k.Q*p.EpsMem + p.Pi0*p.TimeAtFreq(k, s)
		return math.Abs(e-parts) <= 1e-12*parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
