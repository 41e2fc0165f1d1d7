package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// lockstepParams returns the parameter sets the differential tests run
// over: the full machine catalog at both precisions, plus synthetic
// sets exercising π0 = 0, an active power cap, and extreme magnitudes.
func lockstepParams(t testing.TB) map[string]Params {
	t.Helper()
	out := make(map[string]Params)
	for key, m := range machine.Catalog() {
		for _, prec := range []machine.Precision{machine.Single, machine.Double} {
			out[fmt.Sprintf("%s/%v", key, prec)] = FromMachine(m, prec)
		}
	}
	out["synthetic/pi0-zero"] = Params{TauFlop: 2e-12, TauMem: 8e-11, EpsFlop: 5e-10, EpsMem: 2e-9, Pi0: 0}
	out["synthetic/capped"] = Params{TauFlop: 1e-12, TauMem: 3e-11, EpsFlop: 1e-10, EpsMem: 1.5e-9, Pi0: 40, PowerCap: 120}
	out["synthetic/tight-cap"] = Params{TauFlop: 1e-12, TauMem: 3e-11, EpsFlop: 1e-10, EpsMem: 1.5e-9, Pi0: 40, PowerCap: 40.0001}
	out["synthetic/extreme"] = Params{TauFlop: 1e-300, TauMem: 1e300, EpsFlop: 1e-300, EpsMem: 1e300, Pi0: 1e-30}
	return out
}

// lockstepGrid returns the randomized 10k-point (W, Q) grid the batch
// kernels are compared against the scalar path on, opened by a block of
// deterministic edge rows: NaN, ±Inf, zeros (including zero work and
// zero traffic), negatives, denormals, and magnitude extremes.
func lockstepGrid(n int) (w, q []float64) {
	nan, inf := math.NaN(), math.Inf(1)
	edges := [][2]float64{
		{nan, 1e6}, {1e9, nan}, {nan, nan},
		{inf, 1e6}, {1e9, inf}, {inf, inf},
		{-inf, 1e6}, {1e9, -inf},
		{0, 0}, {0, 1e9}, {1e9, 0}, {math.Copysign(0, -1), 1e9},
		{-1e9, 1e5}, {1e9, -1e5},
		{5e-324, 1e9}, {1e9, 5e-324},
		{1e308, 1e308}, {1e-308, 1e308}, {1e308, 1e-308},
		{1, 1},
	}
	rng := rand.New(rand.NewSource(0x600DF00D))
	w = make([]float64, 0, n+len(edges))
	q = make([]float64, 0, n+len(edges))
	for _, e := range edges {
		w = append(w, e[0])
		q = append(q, e[1])
	}
	for i := 0; i < n; i++ {
		// Log-uniform magnitudes over ~60 decades, occasionally negated.
		wi := math.Pow(10, -30+60*rng.Float64())
		qi := math.Pow(10, -30+60*rng.Float64())
		if rng.Intn(16) == 0 {
			wi = -wi
		}
		if rng.Intn(16) == 0 {
			qi = 0
		}
		w = append(w, wi)
		q = append(q, qi)
	}
	return w, q
}

// bitEq fails unless got and want are the same float64 bit pattern
// (signed zeros must match too). The one sanctioned exception is NaN
// payloads: when several operands of one operation are NaN, IEEE 754
// and the Go spec leave unspecified which payload propagates, and
// operand scheduling may legally differ between inlined contexts — so
// any NaN matches any NaN, but a NaN never matches a non-NaN.
func bitEq(t *testing.T, label string, i int, got, want float64) {
	t.Helper()
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s[%d]: batch %v (%#x) != scalar %v (%#x)",
			label, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestBatchEvalLockstep pins every EvalInto column to the scalar
// methods, bit for bit, over the full catalog × randomized grid.
func TestBatchEvalLockstep(t *testing.T) {
	w, q := lockstepGrid(10000)
	for name, p := range lockstepParams(t) {
		t.Run(name, func(t *testing.T) {
			var b Batch
			p.EvalInto(&b, w, q)
			if b.Len() != len(w) {
				t.Fatalf("Len() = %d, want %d", b.Len(), len(w))
			}
			for i := range w {
				k := Kernel{W: w[i], Q: q[i]}
				bitEq(t, "Time", i, b.Time[i], p.Time(k))
				bitEq(t, "Energy", i, b.Energy[i], p.Energy(k))
				bitEq(t, "Power", i, b.Power[i], p.AveragePower(k))
				bitEq(t, "CappedTime", i, b.CappedTime[i], p.CappedTime(k))
				bitEq(t, "CappedEnergy", i, b.CappedEnergy[i], p.CappedEnergy(k))
				bitEq(t, "CappedPower", i, b.CappedPower[i], p.CappedPower(k))
			}
		})
	}
}

// TestBatchColumnKernelsLockstep pins the (W, Q) column kernels that
// EvalInto does not fuse, the time and energy bound classifiers, to the
// scalar methods.
func TestBatchColumnKernelsLockstep(t *testing.T) {
	w, q := lockstepGrid(4000)
	n := len(w)
	for name, p := range lockstepParams(t) {
		t.Run(name, func(t *testing.T) {
			tb := make([]BoundState, n)
			eb := make([]BoundState, n)
			p.TimeBoundInto(tb, w, q)
			p.EnergyBoundInto(eb, w, q)
			for i := range w {
				k := Kernel{W: w[i], Q: q[i]}
				if tb[i] != p.TimeBound(k) {
					t.Errorf("TimeBoundInto[%d]: %v != %v", i, tb[i], p.TimeBound(k))
				}
				if eb[i] != p.EnergyBound(k) {
					t.Errorf("EnergyBoundInto[%d]: %v != %v", i, eb[i], p.EnergyBound(k))
				}
			}
		})
	}
}

// TestBatchCurvesLockstep pins the intensity-column curve kernels to
// the scalar curve methods over a grid that includes the edge
// intensities (0, negatives, ±Inf, NaN).
func TestBatchCurvesLockstep(t *testing.T) {
	grid := append([]float64{0, -1, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e308},
		LogGrid(1e-6, 1e9, 4001)...)
	n := len(grid)
	for name, p := range lockstepParams(t) {
		t.Run(name, func(t *testing.T) {
			roof := make([]float64, n)
			arch := make([]float64, n)
			pl := make([]float64, n)
			cpl := make([]float64, n)
			qa := make([]float64, n)
			w := make([]float64, n)
			for i := range w {
				w[i] = 1e9
			}
			p.RooflineTimeInto(roof, grid)
			p.ArchlineEnergyInto(arch, grid)
			p.PowerLineInto(pl, grid)
			p.CappedPowerLineInto(cpl, grid)
			QAtInto(qa, w, grid)
			for i, x := range grid {
				bitEq(t, "RooflineTimeInto", i, roof[i], p.RooflineTime(x))
				bitEq(t, "ArchlineEnergyInto", i, arch[i], p.ArchlineEnergy(x))
				bitEq(t, "PowerLineInto", i, pl[i], p.PowerLine(x))
				bitEq(t, "CappedPowerLineInto", i, cpl[i], p.CappedPowerLine(x))
				bitEq(t, "QAtInto", i, qa[i], KernelAt(w[i], x).Q)
			}
		})
	}
}

// TestBatchReserveReuses pins the zero-steady-state-allocation
// contract: a second EvalInto on the same Batch (same size) must not
// allocate, and Reserve must reuse capacity for any smaller size.
func TestBatchReserveReuses(t *testing.T) {
	w, q := lockstepGrid(1000)
	p := lockstepParams(t)["gtx580/single"]
	var b Batch
	p.EvalInto(&b, w, q)
	allocs := testing.AllocsPerRun(10, func() {
		p.EvalInto(&b, w, q)
	})
	if allocs != 0 {
		t.Fatalf("steady-state EvalInto allocates %.1f times per call, want 0", allocs)
	}
	small := b.Time[:10]
	b.Reserve(10)
	if &b.Time[0] != &small[0] {
		t.Fatal("Reserve(10) did not reuse the existing column backing array")
	}
}

// TestBatchLengthMismatchPanics pins the pre-sized-columns contract:
// mismatched column lengths must panic rather than silently truncate.
func TestBatchLengthMismatchPanics(t *testing.T) {
	p := Params{TauFlop: 1, TauMem: 1, EpsFlop: 1, EpsMem: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("EvalInto with mismatched columns did not panic")
		}
	}()
	var b Batch
	p.EvalInto(&b, make([]float64, 3), make([]float64, 2))
}
