package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

func params() core.Params {
	return core.FromMachine(machine.GTX580(), machine.Double)
}

func TestEDPFamily(t *testing.T) {
	if EDP(2, 3) != 6 {
		t.Error("EDP")
	}
	v, err := EDnP(2, 3, 2)
	if err != nil || v != 18 {
		t.Errorf("ED2P = %v, %v", v, err)
	}
	v, err = EDnP(2, 3, 0)
	if err != nil || v != 2 {
		t.Errorf("ED0P = %v, %v", v, err)
	}
	if _, err := EDnP(1, 1, -1); err == nil {
		t.Error("negative exponent accepted")
	}
}

func TestEvaluateConsistency(t *testing.T) {
	p := params()
	k := core.KernelAt(1e9, 4)
	s, err := Evaluate(p, k)
	if err != nil {
		t.Fatal(err)
	}
	if s.Time != p.Time(k) || s.Energy != p.Energy(k) {
		t.Error("score disagrees with model")
	}
	if math.Abs(s.EDP-s.Energy*s.Time) > 1e-12*s.EDP {
		t.Error("EDP inconsistent")
	}
	if math.Abs(s.ED2P-s.Energy*s.Time*s.Time) > 1e-12*s.ED2P {
		t.Error("ED2P inconsistent")
	}
	if math.Abs(s.FlopsPerJoule-FlopsPerJoule(k.W, s.Energy)) > 1e-9 {
		t.Error("FlopsPerJoule inconsistent")
	}
	// Indices are fractions of the machine's bests.
	const ulp = 1e-12 // saturated indices may round just above 1
	if s.GreenIndex <= 0 || s.GreenIndex > 1+ulp {
		t.Errorf("GreenIndex = %v", s.GreenIndex)
	}
	if s.SpeedIndex <= 0 || s.SpeedIndex > 1+ulp {
		t.Errorf("SpeedIndex = %v", s.SpeedIndex)
	}
	// The indices are exactly the roofline/arch-line heights.
	if math.Abs(s.SpeedIndex-p.RooflineTime(4)) > 1e-12 {
		t.Errorf("SpeedIndex %v != roofline %v", s.SpeedIndex, p.RooflineTime(4))
	}
	if math.Abs(s.GreenIndex-p.ArchlineEnergy(4)) > 1e-12 {
		t.Errorf("GreenIndex %v != arch line %v", s.GreenIndex, p.ArchlineEnergy(4))
	}
	if _, err := Evaluate(p, core.Kernel{W: 0, Q: 1}); err == nil {
		t.Error("zero-work kernel accepted")
	}
}

func TestFlatnessDetectsBalancePoints(t *testing.T) {
	p := params()
	// Deep in the memory-bound regime, doubling intensity halves both
	// time and energy (roughly): EDP flatness ≈ 1/4.
	f, err := Flatness(p, 1e9, p.BalanceTime()/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f > 0.5 {
		t.Errorf("memory-bound EDP flatness = %v, want deep improvement", f)
	}
	// Far past both balance points, doubling intensity buys almost
	// nothing.
	f, err = Flatness(p, 1e9, 64*p.BalanceTime(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.95 || f > 1 {
		t.Errorf("compute-bound EDP flatness = %v, want ≈1", f)
	}
	if _, err := Flatness(p, 1e9, -1, 1); err == nil {
		t.Error("negative intensity accepted")
	}
	if _, err := Flatness(p, 1e9, 1, -1); err == nil {
		t.Error("negative exponent accepted")
	}
}

func TestPropMetricsMonotoneInIntensity(t *testing.T) {
	// For fixed work, all EDⁿP metrics are non-increasing in intensity:
	// shedding traffic can't hurt.
	p := params()
	f := func(ri float64, n uint8) bool {
		i := math.Exp2(math.Mod(ri, 8))
		nn := int(n % 3)
		v1, err1 := EDnP(p.Energy(core.KernelAt(1e9, i)), p.Time(core.KernelAt(1e9, i)), nn)
		v2, err2 := EDnP(p.Energy(core.KernelAt(1e9, 2*i)), p.Time(core.KernelAt(1e9, 2*i)), nn)
		return err1 == nil && err2 == nil && v2 <= v1*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMetricsDisagreeAcrossMachines(t *testing.T) {
	// A kernel can rank differently under speed and energy efficiency
	// across machines — the reason composite metrics exist. The GPU is
	// faster AND greener here; the indices (machine-relative) can still
	// disagree with the absolute metrics.
	gpu := core.FromMachine(machine.GTX580(), machine.Single)
	cpu := core.FromMachine(machine.CoreI7950(), machine.Single)
	k := core.KernelAt(1e9, 4)
	sg, err := Evaluate(gpu, k)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Evaluate(cpu, k)
	if err != nil {
		t.Fatal(err)
	}
	if sg.FlopsPerSecond <= sc.FlopsPerSecond {
		t.Error("GPU should be faster at I=4")
	}
	if sg.FlopsPerJoule <= sc.FlopsPerJoule {
		t.Error("GPU should be greener at I=4")
	}
	// But relative to its own peak, the CPU is closer to its roofline
	// at I=4 (its Bτ is 4.16 vs the GPU's 8.22).
	if sc.SpeedIndex <= sg.SpeedIndex {
		t.Error("CPU should be nearer its own roofline at I=4")
	}
}
