package model_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
)

// lockstepTrials is the property-test budget per (machine, precision)
// pair: 300 random kernels, each checked scalar-vs-interface and
// batch-vs-scalar.
const lockstepTrials = 300

// bitEq fails unless got and want are the same float64 bit pattern.
func bitEq(t *testing.T, label string, i int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)",
			label, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// trialKernels returns n deterministic pseudo-random kernels spanning
// the physically meaningful range: log-uniform work over ~12 decades,
// intensities from far memory-bound to far compute-bound.
func trialKernels(n int, seed int64) (w, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	w = make([]float64, n)
	q = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(10, 3+12*rng.Float64())
		intensity := math.Pow(2, -6+14*rng.Float64())
		q[i] = w[i] / intensity
	}
	return w, q
}

// TestAnalyticInterfaceLockstep pins the refactor's core guarantee: the
// Analytic model reached through the EnergyModel interface is
// bit-identical to calling internal/core directly — every scalar
// method, and the batch EvalInto against both the direct core batch and
// the element-wise scalar methods — across the whole catalog at both
// precisions.
func TestAnalyticInterfaceLockstep(t *testing.T) {
	for key, m := range machine.Catalog() {
		for _, prec := range []machine.Precision{machine.Double, machine.Single} {
			t.Run(fmt.Sprintf("%s/%v", key, prec), func(t *testing.T) {
				p := core.FromMachine(m, prec)
				em, err := model.For(model.AnalyticName, key, prec)
				if err != nil {
					t.Fatal(err)
				}
				if em.Name() != model.AnalyticName {
					t.Fatalf("Name() = %q", em.Name())
				}
				w, q := trialKernels(lockstepTrials, 0x10C2_57E9)
				for i := range w {
					k := core.Kernel{W: w[i], Q: q[i]}
					bitEq(t, "Time", i, em.Time(k), p.Time(k))
					bitEq(t, "Energy", i, em.Energy(k), p.Energy(k))
					bitEq(t, "Power", i, em.Power(k), p.AveragePower(k))
					bitEq(t, "CappedTime", i, em.CappedTime(k), p.CappedTime(k))
					bitEq(t, "CappedEnergy", i, em.CappedEnergy(k), p.CappedEnergy(k))
					bitEq(t, "CappedPower", i, em.CappedPower(k), p.CappedPower(k))
				}
				var ib, db core.Batch
				em.EvalInto(&ib, w, q)
				p.EvalInto(&db, w, q)
				for i := range w {
					bitEq(t, "batch Time", i, ib.Time[i], db.Time[i])
					bitEq(t, "batch Energy", i, ib.Energy[i], db.Energy[i])
					bitEq(t, "batch Power", i, ib.Power[i], db.Power[i])
					bitEq(t, "batch CappedTime", i, ib.CappedTime[i], db.CappedTime[i])
					bitEq(t, "batch CappedEnergy", i, ib.CappedEnergy[i], db.CappedEnergy[i])
					bitEq(t, "batch CappedPower", i, ib.CappedPower[i], db.CappedPower[i])
					// Batch ≡ scalar through the interface, too.
					k := core.Kernel{W: w[i], Q: q[i]}
					bitEq(t, "batch vs scalar Time", i, ib.Time[i], em.Time(k))
					bitEq(t, "batch vs scalar Energy", i, ib.Energy[i], em.Energy(k))
				}
			})
		}
	}
}

// TestBlackboxBatchScalarLockstep extends PR 7's lockstep contract to
// the fitted model: Blackbox.EvalInto columns are bit-identical to its
// scalar methods element-wise, and the capped columns equal the plain
// ones (throttling is endogenous to the fit).
func TestBlackboxBatchScalarLockstep(t *testing.T) {
	bb := fitSmall(t, "gtx580")
	w, q := trialKernels(lockstepTrials, 0xB1AC_B0C5)
	var b core.Batch
	bb.EvalInto(&b, w, q)
	for i := range w {
		k := core.Kernel{W: w[i], Q: q[i]}
		bitEq(t, "Time", i, b.Time[i], bb.Time(k))
		bitEq(t, "Energy", i, b.Energy[i], bb.Energy(k))
		bitEq(t, "Power", i, b.Power[i], bb.Power(k))
		bitEq(t, "CappedTime", i, b.CappedTime[i], b.Time[i])
		bitEq(t, "CappedEnergy", i, b.CappedEnergy[i], b.Energy[i])
		bitEq(t, "CappedPower", i, b.CappedPower[i], b.Power[i])
	}
}

// fitSmall fits one small, fast blackbox campaign for tests.
func fitSmall(t *testing.T, machineKey string) *model.Blackbox {
	t.Helper()
	bb, err := model.Fit(model.FitConfig{Machine: machineKey, Points: 5, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

// TestFitDeterministic pins the fit identity: the same config yields
// bit-identical coefficients on every run and at any worker count.
func TestFitDeterministic(t *testing.T) {
	base := fitSmall(t, "i7-950")
	again := fitSmall(t, "i7-950")
	if *base != *again {
		t.Fatalf("refit differs:\n%+v\n%+v", base, again)
	}
	for _, workers := range []int{1, 4} {
		bb, err := model.Fit(model.FitConfig{Machine: "i7-950", Points: 5, Reps: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if *bb != *base {
			t.Fatalf("fit at workers=%d differs:\n%+v\n%+v", workers, bb, base)
		}
	}
	if base.Obs != 2*5*3 {
		t.Errorf("Obs = %d, want %d", base.Obs, 2*5*3)
	}
	if base.TimeR2 <= 0.5 || base.EnergyR2 <= 0.5 {
		t.Errorf("implausible fit quality: TimeR2=%v EnergyR2=%v", base.TimeR2, base.EnergyR2)
	}
}

// TestForResolution covers the registry: empty and explicit names,
// memoized blackbox fits, and the error paths.
func TestForResolution(t *testing.T) {
	def, err := model.For("", "gtx580", machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != model.DefaultName() {
		t.Errorf("empty name resolved to %q, want the default %q", def.Name(), model.DefaultName())
	}
	bb1, err := model.For(model.BlackboxName, "gtx580", machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	bb2, err := model.For(model.BlackboxName, "gtx580", machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	if bb1 != bb2 {
		t.Error("repeated blackbox lookups did not share one memoized fit")
	}
	if _, err := model.For("psychic", "gtx580", machine.Double); err == nil {
		t.Error("unknown model name resolved")
	}
	if _, err := model.For("", "vaporware", machine.Double); err == nil {
		t.Error("unknown machine resolved")
	}
}

// TestRegistry pins the name surface the server lists.
func TestRegistry(t *testing.T) {
	names := model.Names()
	if len(names) < 2 {
		t.Fatalf("Names() = %v", names)
	}
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("Names() not sorted: %v", names)
		}
		if !model.Known(name) {
			t.Errorf("registered name %q not Known", name)
		}
		if model.Describe(name) == "" {
			t.Errorf("registered name %q has no description", name)
		}
	}
	if !model.Known("") {
		t.Error("empty selector must be known (the default)")
	}
	if model.Known("psychic") {
		t.Error("unregistered name is Known")
	}
	if model.Describe("psychic") != "" {
		t.Error("unregistered name has a description")
	}
}
