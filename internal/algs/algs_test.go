package algs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/stats"
)

func TestMatMulIntensityScalesAsSqrtZ(t *testing.T) {
	// §II-A: doubling Z improves matmul intensity by no more than √2,
	// and blocked matmul attains Θ(√Z), so the ratio approaches √2 for
	// n ≫ block size.
	n := 1e5
	for _, z := range []float64{1 << 12, 1 << 16, 1 << 20} {
		g, err := IntensityGrowth(MatMul{}, n, z)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g-math.Sqrt2) > 0.02 {
			t.Errorf("z=%g: intensity growth = %v, want ≈√2", z, g)
		}
		if g > math.Sqrt2+1e-9 {
			t.Errorf("z=%g: growth %v exceeds the Hong–Kung bound √2", z, g)
		}
	}
	// Absolute scaling: I ≈ √(Z/3)/2 ... check I = Θ(√Z) within 2×.
	i := Intensity(MatMul{}, n, 1<<20)
	sqrtZ := math.Sqrt(1 << 20)
	if i < sqrtZ/8 || i > sqrtZ {
		t.Errorf("matmul intensity %v not Θ(√Z) (√Z = %v)", i, sqrtZ)
	}
}

func TestReductionIntensityIndependentOfZ(t *testing.T) {
	// §II-A: increasing Z has no effect on a reduction's intensity.
	n := 1e7
	g, err := IntensityGrowth(Reduction{}, n, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Errorf("reduction intensity growth = %v, want exactly 1", g)
	}
	if i := Intensity(Reduction{}, n, 1<<20); i > 1 {
		t.Errorf("reduction intensity = %v, should be ≤ 1 flop/word", i)
	}
}

func TestStencilPlaneCachingThreshold(t *testing.T) {
	n := 512.0
	small := (Stencil{}).Traffic(n, 2*n*n) // planes don't fit
	large := (Stencil{}).Traffic(n, 4*n*n) // planes fit
	if small <= large {
		t.Error("insufficient Z must increase stencil traffic")
	}
	if large != 2*n*n*n {
		t.Errorf("cached stencil traffic = %v", large)
	}
}

func TestFFTTrafficMatchesHongKungForm(t *testing.T) {
	n := math.Pow(2, 20)
	for _, z := range []float64{1 << 10, 1 << 14, 1 << 18} {
		q := FFT{}.Traffic(n, z)
		expect := 4*n*20/math.Log2(z) + 2*n
		if math.Abs(q-expect) > 1e-6*expect {
			t.Errorf("z=%g: Q = %v, want %v", z, q, expect)
		}
	}
	// Bigger Z means less traffic.
	if (FFT{}).Traffic(n, 1<<18) >= (FFT{}).Traffic(n, 1<<10) {
		t.Error("FFT traffic must decrease with Z")
	}
	// Degenerate sizes.
	if (FFT{}).Work(1) != 0 {
		t.Error("FFT work at n=1 should be 0")
	}
}

func TestSpMVBoundedIntensity(t *testing.T) {
	s := SpMV{}
	n := 1e6
	// Intensity is O(1): bounded regardless of Z.
	for _, z := range []float64{1e3, 1e6, 1e9} {
		i := Intensity(s, n, z)
		if i < 0.2 || i > 2 {
			t.Errorf("z=%g: SpMV intensity = %v flops/word, want O(1)", z, i)
		}
	}
	// Caching the source vector helps but cannot beat the matrix term.
	if s.Traffic(n, 2e6) >= s.Traffic(n, 1e3) {
		t.Error("larger Z should reduce SpMV traffic")
	}
	if (SpMV{NonzerosPerRow: 16}).Work(n) != 2*16*n {
		t.Error("custom nnz/row not honoured")
	}
}

func TestFMMUIntensityIsOrderQ(t *testing.T) {
	f := FMMU{PointsPerLeaf: 256}
	i := Intensity(f, 1e6, 1<<20)
	// I = 11·27·q/4 words ≈ 19000 flops/word: strongly compute-bound,
	// growing linearly in q.
	i2 := Intensity(FMMU{PointsPerLeaf: 512}, 1e6, 1<<20)
	if math.Abs(i2/i-2) > 1e-9 {
		t.Errorf("FMM-U intensity should scale linearly with q: %v vs %v", i, i2)
	}
	if (FMMU{}).Work(10) != 11*27*256*10 {
		t.Error("default q = 256 not applied")
	}
}

func TestByNameAndAll(t *testing.T) {
	if len(All()) != 6 {
		t.Errorf("algorithm count = %d", len(All()))
	}
	// Reports and figures label algorithms by name, so names are unique.
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name()] {
			t.Errorf("duplicate algorithm name %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

func TestIntensityGrowthErrors(t *testing.T) {
	if _, err := IntensityGrowth(MatMul{}, -1, 10); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := IntensityGrowth(MatMul{}, 10, 0); err == nil {
		t.Error("zero z accepted")
	}
}

func TestToKernelPrecisionScaling(t *testing.T) {
	ks := ToKernel(Reduction{}, 1e6, 1e4, machine.Single)
	kd := ToKernel(Reduction{}, 1e6, 1e4, machine.Double)
	if kd.Q != 2*ks.Q {
		t.Error("double precision should double the byte traffic")
	}
	if ks.W != kd.W {
		t.Error("work must not depend on precision")
	}
}

func TestEvaluateVerdicts(t *testing.T) {
	m := machine.GTX580()
	// FMM-U: compute-bound in both time and energy (§V-C).
	v, err := Evaluate(FMMU{}, 1e6, m, machine.Single)
	if err != nil {
		t.Fatal(err)
	}
	if v.TimeBound.String() != "compute-bound" || v.EnergyBound.String() != "compute-bound" {
		t.Errorf("FMM-U verdict: %+v", v)
	}
	// Reduction: memory-bound in both.
	v, err = Evaluate(Reduction{}, 1e8, m, machine.Single)
	if err != nil {
		t.Fatal(err)
	}
	if v.TimeBound.String() != "memory-bound" || v.EnergyBound.String() != "memory-bound" {
		t.Errorf("reduction verdict: %+v", v)
	}
	if v.Time <= 0 || v.Energy <= 0 || v.Power <= 0 {
		t.Error("verdict quantities must be positive")
	}
	if _, err := Evaluate(Reduction{}, 0, m, machine.Single); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestPropWorkTrafficMonotoneInN(t *testing.T) {
	f := func(rn, rz float64, pick uint8) bool {
		n := 100 + math.Abs(math.Mod(rn, 1e6))
		z := 64 + math.Abs(math.Mod(rz, 1e7))
		a := All()[int(pick)%len(All())]
		// Work and traffic grow with problem size.
		return a.Work(2*n) >= a.Work(n) && a.Traffic(2*n, z) >= a.Traffic(n, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropTrafficNonIncreasingInZ(t *testing.T) {
	f := func(rn, rz float64, pick uint8) bool {
		n := 100 + math.Abs(math.Mod(rn, 1e6))
		z := 64 + math.Abs(math.Mod(rz, 1e7))
		a := All()[int(pick)%len(All())]
		return a.Traffic(n, 2*z) <= a.Traffic(n, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntensityInfinityOnZeroTraffic(t *testing.T) {
	// A degenerate custom algorithm with no traffic.
	z := zeroTraffic{}
	if !math.IsInf(Intensity(z, 10, 10), 1) {
		t.Error("zero traffic should give infinite intensity")
	}
}

type zeroTraffic struct{}

func (zeroTraffic) Name() string                 { return "zero" }
func (zeroTraffic) Work(n float64) float64       { return n }
func (zeroTraffic) Traffic(_, _ float64) float64 { return 0 }

// Cross-check a verdict against an independent derivation.
func TestEvaluateAgreesWithManualModel(t *testing.T) {
	m := machine.CoreI7950()
	a := Stencil{}
	n := 256.0
	zWords := float64(m.FastMemory) / 8
	v, err := Evaluate(a, n, m, machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	wantI := a.Work(n) / (a.Traffic(n, zWords) * 8)
	if stats.RelErr(v.Intensity, wantI) > 1e-12 {
		t.Errorf("intensity %v vs manual %v", v.Intensity, wantI)
	}
}
