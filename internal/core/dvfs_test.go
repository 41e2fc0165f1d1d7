package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/stats"
)

// atFreq pins p to the s-law operating point at clock fraction s.
func atFreq(p Params, s float64) Params { return p.AtOperatingPoint(machine.SLawPoint(s)) }

// TestDVFSFullClockRecoversBaseModel: the s-law point at full clock is
// the base point, so pinning it leaves every parameter's bits alone.
func TestDVFSFullClockRecoversBaseModel(t *testing.T) {
	if got := machine.SLawPoint(1); got != machine.BasePoint() {
		t.Errorf("s-law point at s=1 is %+v, want the base point", got)
	}
	p := FromMachine(machine.CoreI7950(), machine.Single)
	if got := atFreq(p, 1); got != p {
		t.Errorf("s-law point at s=1 moved the parameters: %+v vs %+v", got, p)
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
	if s, _, err := p.OptimalFreqScale(k, 0.1); err != nil || s != 1 {
		t.Errorf("race-to-halt should be DVFS-optimal at π0 = 122 W: s = %v, err %v", s, err)
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
		if atFreq(p, s+ds).Energy(k) <= e {
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
	if atFreq(p, s).Time(k) != p.Time(k) {
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
			if atFreq(p, sg).Energy(k) < e*(1-1e-9) {
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
	// The s-law point is the closed form: T(s) = max(W·τflop/s, Q·τmem),
	// and E(s)'s flop term scales as s², its memory term is constant
	// and its constant term is π0·T(s).
	f := func(a, b, c, ri, rs float64) bool {
		p := randParams(a, b, c)
		k := KernelAt(1e9, randIntensity(ri))
		s := 0.1 + 0.9*math.Abs(math.Mod(rs, 1))
		at := atFreq(p, s)
		ts := math.Max(k.W*p.TauFlop/s, k.Q*p.TauMem)
		parts := k.W*p.EpsFlop*s*s + k.Q*p.EpsMem + p.Pi0*ts
		return stats.RelErr(at.Time(k), ts) <= 1e-12 && stats.RelErr(at.Energy(k), parts) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
