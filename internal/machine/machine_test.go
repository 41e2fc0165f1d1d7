package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestCatalogValidates(t *testing.T) {
	for key, m := range Catalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("catalog machine %q invalid: %v", key, err)
		}
	}
}

func TestTableIIBalances(t *testing.T) {
	// Table II: Bτ ≈ 3.6 flop/byte, Bε = 14.4 flop/byte for Fermi DP.
	m := FermiTableII()
	if bt := m.BalanceTime(Double); math.Abs(bt-515.0/144.0) > 1e-12 {
		t.Errorf("Fermi Bτ = %v, want %v", bt, 515.0/144.0)
	}
	if be := m.BalanceEnergy(Double); math.Abs(be-14.4) > 1e-9 {
		t.Errorf("Fermi Bε = %v, want 14.4", be)
	}
	// τflop ≈ 1.9 ps, τmem ≈ 6.9 ps as the table quotes.
	if tf := float64(m.TauFlop(Double)); math.Abs(tf-1.0/515e9) > 1e-24 {
		t.Errorf("τflop = %v", tf)
	}
	if tm := float64(m.TauMem()); math.Abs(tm-1.0/144e9) > 1e-24 {
		t.Errorf("τmem = %v", tm)
	}
}

func TestTableIIIPeaks(t *testing.T) {
	gpu := GTX580()
	cpu := CoreI7950()
	if gpu.SP.PeakFlops != 1581.06e9 || gpu.DP.PeakFlops != 197.63e9 {
		t.Errorf("GTX 580 peaks = %v / %v", gpu.SP.PeakFlops, gpu.DP.PeakFlops)
	}
	if gpu.Bandwidth != 192.4e9 {
		t.Errorf("GTX 580 bandwidth = %v", gpu.Bandwidth)
	}
	if cpu.SP.PeakFlops != 106.56e9 || cpu.DP.PeakFlops != 53.28e9 {
		t.Errorf("i7-950 peaks = %v / %v", cpu.SP.PeakFlops, cpu.DP.PeakFlops)
	}
	if cpu.Bandwidth != 25.6e9 {
		t.Errorf("i7-950 bandwidth = %v", cpu.Bandwidth)
	}
	if gpu.RatedPower != 244 {
		t.Errorf("GTX 580 rated power = %v, want 244", gpu.RatedPower)
	}
	if gpu.PowerCap <= gpu.RatedPower {
		t.Errorf("GTX 580 hard cap %v should sit above the 244 W rating", gpu.PowerCap)
	}
	if cpu.RatedPower != 130 {
		t.Errorf("i7-950 rated power = %v, want 130", cpu.RatedPower)
	}
}

func TestTableIVGroundTruth(t *testing.T) {
	gpu := GTX580()
	cpu := CoreI7950()
	checks := []struct {
		name string
		got  units.Joules
		pJ   float64
	}{
		{"gpu εs", gpu.SP.EnergyPerFlop, 99.7},
		{"gpu εd", gpu.DP.EnergyPerFlop, 212},
		{"gpu εmem", gpu.EnergyPerByte, 513},
		{"cpu εs", cpu.SP.EnergyPerFlop, 371},
		{"cpu εd", cpu.DP.EnergyPerFlop, 670},
		{"cpu εmem", cpu.EnergyPerByte, 795},
	}
	for _, c := range checks {
		if math.Abs(c.got.AsPicoJoules()-c.pJ) > 1e-9 {
			t.Errorf("%s = %v pJ, want %v", c.name, c.got.AsPicoJoules(), c.pJ)
		}
	}
	if gpu.ConstantPower != 122 || cpu.ConstantPower != 122 {
		t.Errorf("π0 = %v / %v, want 122 on both (Table IV)", gpu.ConstantPower, cpu.ConstantPower)
	}
}

func TestAchievedFractionsMatchSectionIVB(t *testing.T) {
	gpu := GTX580()
	// 170 GB/s is 88.3% of peak; 196 GFLOP/s is 99.3% of DP peak.
	if f := gpu.DP.AchievedBWFrac; math.Abs(f-0.883) > 0.001 {
		t.Errorf("GPU DP bandwidth fraction = %v, want ≈0.883", f)
	}
	if f := gpu.DP.AchievedFlopFrac; math.Abs(f-0.9918) > 0.001 {
		t.Errorf("GPU DP flop fraction = %v, want ≈0.992", f)
	}
	cpu := CoreI7950()
	if f := cpu.SP.AchievedBWFrac; math.Abs(f-0.731) > 0.001 {
		t.Errorf("CPU SP bandwidth fraction = %v, want ≈0.731", f)
	}
	if f := cpu.SP.AchievedFlopFrac; math.Abs(f-0.933) > 0.001 {
		t.Errorf("CPU SP flop fraction = %v, want ≈0.933", f)
	}
}

func TestPrecisionHelpers(t *testing.T) {
	if Single.WordSize() != 4 || Double.WordSize() != 8 {
		t.Error("word sizes wrong")
	}
	if Single.Indicator() != 0 || Double.Indicator() != 1 {
		t.Error("indicators wrong")
	}
	if Single.String() != "single" || Double.String() != "double" {
		t.Error("precision strings wrong")
	}
	if !strings.Contains(Precision(9).String(), "9") {
		t.Error("unknown precision string")
	}
}

func TestParsePrecision(t *testing.T) {
	for name, want := range map[string]Precision{"single": Single, "double": Double, "": Double} {
		if got, err := ParsePrecision(name); err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"half", "Single", " double"} {
		_, err := ParsePrecision(name)
		if want := fmt.Sprintf(`unknown precision %q (want "single" or "double")`, name); err == nil || err.Error() != want {
			t.Errorf("ParsePrecision(%q) error = %v; want %s", name, err, want)
		}
	}
}

func TestParamsSelector(t *testing.T) {
	m := GTX580()
	if m.Params(Single).PeakFlops != m.SP.PeakFlops {
		t.Error("Params(Single) != SP")
	}
	if m.Params(Double).PeakFlops != m.DP.PeakFlops {
		t.Error("Params(Double) != DP")
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	mut := []struct {
		name string
		mod  func(*Machine)
	}{
		{"no name", func(m *Machine) { m.Name = "" }},
		{"zero bandwidth", func(m *Machine) { m.Bandwidth = 0 }},
		{"zero mem energy", func(m *Machine) { m.EnergyPerByte = 0 }},
		{"negative const power", func(m *Machine) { m.ConstantPower = -1 }},
		{"negative idle", func(m *Machine) { m.IdlePower = -1 }},
		{"negative cap", func(m *Machine) { m.PowerCap = -5 }},
		{"zero sp flops", func(m *Machine) { m.SP.PeakFlops = 0 }},
		{"zero dp flop energy", func(m *Machine) { m.DP.EnergyPerFlop = 0 }},
		{"flop frac > 1", func(m *Machine) { m.SP.AchievedFlopFrac = 1.5 }},
		{"bw frac 0", func(m *Machine) { m.DP.AchievedBWFrac = 0 }},
		{"bad cache geometry", func(m *Machine) { m.Caches[0].LineSize = 0 }},
		{"cache size not multiple of line", func(m *Machine) { m.Caches[0].Size = 100 }},
		{"cache lines not divisible by assoc", func(m *Machine) { m.Caches[0].Assoc = 7 }},
		{"negative cache energy", func(m *Machine) { m.Caches[1].EnergyPerByte = -1 }},
	}
	for _, c := range mut {
		m := GTX580()
		c.mod(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := GTX580()
	data, err := m.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Bandwidth != m.Bandwidth || got.EnergyPerByte != m.EnergyPerByte {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Caches) != len(m.Caches) {
		t.Errorf("round trip lost caches")
	}
	if got.DP.EnergyPerFlop != m.DP.EnergyPerFlop {
		t.Errorf("round trip lost precision params")
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := FromJSON([]byte(`{"name":"x"}`)); err == nil {
		t.Error("invalid machine should fail validation")
	}
}

func TestClone(t *testing.T) {
	m := GTX580()
	c := m.Clone()
	c.Caches[0].Size = 1 << 20
	c.Name = "other"
	if m.Caches[0].Size == c.Caches[0].Size {
		t.Error("Clone shares cache slice")
	}
	if m.Name == c.Name {
		t.Error("Clone shares name")
	}
}

func TestBalanceGapDirection(t *testing.T) {
	// §V-B: on both measured platforms (with π0 > 0 folded in later by
	// the model), the raw Bε exceeds Bτ on the GPU DP case, while CPU
	// energies are "closer" than GPU's. Check the raw ratios here.
	gpu := GTX580()
	be := gpu.BalanceEnergy(Double) // 513/212 ≈ 2.42
	bt := gpu.BalanceTime(Double)   // 197.63/192.4 ≈ 1.03
	if !(be > bt) {
		t.Errorf("GPU DP: raw Bε (%v) should exceed Bτ (%v)", be, bt)
	}
	cpu := CoreI7950()
	gpuRatio := float64(gpu.EnergyPerByte) / float64(gpu.DP.EnergyPerFlop)
	cpuRatio := float64(cpu.EnergyPerByte) / float64(cpu.DP.EnergyPerFlop)
	if !(cpuRatio < gpuRatio) {
		t.Errorf("εflop/εmem should be closer on CPU: cpu %v vs gpu %v", cpuRatio, gpuRatio)
	}
}

func TestFutureBalanceGapRegime(t *testing.T) {
	// The §VII thought-experiment machine must actually sit in the
	// reversed regime: Bε > Bτ with π0 = 0 for both precisions.
	m := FutureBalanceGap()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.ConstantPower != 0 {
		t.Error("future machine must have π0 = 0")
	}
	for _, prec := range []Precision{Single, Double} {
		if m.BalanceEnergy(prec) <= m.BalanceTime(prec) {
			t.Errorf("%v: Bε (%v) must exceed Bτ (%v) on the future machine",
				prec, m.BalanceEnergy(prec), m.BalanceTime(prec))
		}
	}
}
