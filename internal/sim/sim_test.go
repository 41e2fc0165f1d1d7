package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/units"
)

func idealEngine(t *testing.T, m *machine.Machine) *Engine {
	t.Helper()
	e, err := New(m, Config{Seed: 1, Ideal: true, EnforceCap: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIdealRunMatchesModel(t *testing.T) {
	// With Ideal config and no cap pressure, the simulator must realise
	// the analytic model exactly.
	m := machine.GTX580()
	e := idealEngine(t, m)
	p := core.FromMachine(m, machine.Double)
	for _, i := range []float64{0.25, 1, 4, 16} {
		k := core.KernelAt(1e9, i)
		r, err := e.Run(KernelSpec{W: k.W, Q: k.Q, Precision: machine.Double})
		if err != nil {
			t.Fatal(err)
		}
		if r.Throttled {
			continue // near-balance DP points may throttle; cap tests cover it
		}
		if stats.RelErr(float64(r.Duration), p.Time(k)) > 1e-12 {
			t.Errorf("I=%v: T = %v, model %v", i, r.Duration, p.Time(k))
		}
		if stats.RelErr(float64(r.Energy), p.Energy(k)) > 1e-12 {
			t.Errorf("I=%v: E = %v, model %v", i, r.Energy, p.Energy(k))
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	e := idealEngine(t, machine.GTX580())
	bad := []KernelSpec{
		{W: -1, Q: 1},
		{W: 1, Q: -1},
		{W: 0, Q: 0},
	}
	for i, s := range bad {
		if _, err := e.Run(s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(machine.GTX580(), Config{TimeNoiseSD: -1}); err == nil {
		t.Error("negative noise accepted")
	}
	bad := machine.GTX580()
	bad.Bandwidth = 0
	if _, err := New(bad, DefaultConfig(1)); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestAchievedFractionsShapeRealRuns(t *testing.T) {
	// A perfectly tuned non-ideal run reaches the §IV-B achieved
	// fractions, not the raw peaks.
	m := machine.GTX580()
	e, err := New(m, Config{Seed: 3, TimeNoiseSD: 1e-9, PowerNoiseSD: 1e-9, EnforceCap: false})
	if err != nil {
		t.Fatal(err)
	}
	// Strongly compute-bound double-precision kernel.
	spec := KernelSpec{W: 1e11, Q: 1e6, Precision: machine.Double, Tuning: e.OptimalTuning()}
	r, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	gflops := spec.W / float64(r.Duration) / 1e9
	// §IV-B: 196 GFLOP/s achieved on the GTX 580 in double precision.
	if math.Abs(gflops-196) > 2 {
		t.Errorf("achieved DP rate = %v GFLOP/s, want ≈196", gflops)
	}
	// Strongly memory-bound kernel: 170 GB/s.
	spec = KernelSpec{W: 1e3, Q: 1e10, Precision: machine.Double, Tuning: e.OptimalTuning()}
	r, err = e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	gbs := spec.Q / float64(r.Duration) / 1e9
	if math.Abs(gbs-170) > 2 {
		t.Errorf("achieved bandwidth = %v GB/s, want ≈170", gbs)
	}
}

func TestTuningQualityPeaksAtOptimum(t *testing.T) {
	e := idealEngine(t, machine.GTX580())
	opt := e.OptimalTuning()
	if q := e.TuningQuality(opt); math.Abs(q-1) > 1e-12 {
		t.Errorf("optimal tuning quality = %v", q)
	}
	// Any perturbation strictly reduces quality.
	perturbs := []Tuning{
		{Threads: opt.Threads * 4, BlockSize: opt.BlockSize, Unroll: opt.Unroll, RequestsPerThread: opt.RequestsPerThread},
		{Threads: opt.Threads, BlockSize: opt.BlockSize * 2, Unroll: opt.Unroll, RequestsPerThread: opt.RequestsPerThread},
		{Threads: opt.Threads, BlockSize: opt.BlockSize, Unroll: opt.Unroll * 8, RequestsPerThread: opt.RequestsPerThread},
		{Threads: opt.Threads, BlockSize: opt.BlockSize, Unroll: opt.Unroll, RequestsPerThread: opt.RequestsPerThread * 4},
	}
	for i, tn := range perturbs {
		if q := e.TuningQuality(tn); q >= 1 {
			t.Errorf("perturbation %d: quality %v should be < 1", i, q)
		}
	}
	// Zero fields take defaults (the optimum).
	if q := e.TuningQuality(Tuning{}); math.Abs(q-1) > 1e-12 {
		t.Errorf("default tuning quality = %v", q)
	}
}

func TestDifferentMachinesHaveDifferentOptima(t *testing.T) {
	eg := idealEngine(t, machine.GTX580())
	ec := idealEngine(t, machine.CoreI7950())
	if eg.OptimalTuning() == ec.OptimalTuning() {
		t.Error("machines should have distinct tuning optima")
	}
}

func TestPowerCapThrottling(t *testing.T) {
	// GTX 580 single precision near the balance point demands ~387 W
	// from the model; the 244 W cap must throttle the run.
	m := machine.GTX580()
	e := idealEngine(t, m)
	p := core.FromMachine(m, machine.Single)
	k := core.KernelAt(1e10, p.BalanceTime())
	r, err := e.Run(KernelSpec{W: k.W, Q: k.Q, Precision: machine.Single})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Throttled {
		t.Fatal("expected throttling at the balance point")
	}
	if got := float64(r.AvgPower); got > float64(m.PowerCap)+1e-6 {
		t.Errorf("throttled power %v exceeds cap %v", got, m.PowerCap)
	}
	if float64(r.Duration) <= p.Time(k) {
		t.Error("throttled run should be slower than the uncapped model")
	}

	// Same kernel with cap enforcement off: full model power.
	e2, err := New(m, Config{Seed: 1, Ideal: true, EnforceCap: false})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(KernelSpec{W: k.W, Q: k.Q, Precision: machine.Single})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Throttled {
		t.Error("cap disabled but run throttled")
	}
	if float64(r2.AvgPower) < 300 {
		t.Errorf("uncapped power = %v, expected ≈387 W", r2.AvgPower)
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	m := machine.CoreI7950()
	spec := KernelSpec{W: 1e9, Q: 1e9, Precision: machine.Single}
	run := func(seed int64) (float64, float64) {
		e, err := New(m, DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Duration), float64(r.Energy)
	}
	t1, e1 := run(42)
	t2, e2 := run(42)
	if t1 != t2 || e1 != e2 {
		t.Error("same seed must reproduce identical measurements")
	}
	t3, _ := run(43)
	if t1 == t3 {
		t.Error("different seeds should differ")
	}
}

func TestNoiseMagnitude(t *testing.T) {
	m := machine.CoreI7950()
	e, err := New(m, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	spec := KernelSpec{W: 1e9, Q: 1e8, Precision: machine.Double, Tuning: e.OptimalTuning()}
	runs, err := e.RunRepeated(spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, r := range runs {
		ts = append(ts, float64(r.Duration)/float64(r.TrueDuration))
	}
	mean, _ := stats.Mean(ts)
	sd, _ := stats.StdDev(ts)
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("time noise not centred: %v", mean)
	}
	if sd < 0.003 || sd > 0.03 {
		t.Errorf("time noise sd = %v, want ≈0.01", sd)
	}
}

func TestPowerWaveIntegratesToEnergy(t *testing.T) {
	m := machine.GTX580()
	e := idealEngine(t, m)
	r, err := e.Run(KernelSpec{W: 1e10, Q: 1e9, Precision: machine.Double})
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid-integrate PowerAt over the duration.
	const n = 20000
	dt := float64(r.Duration) / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * float64(r.PowerAt(units.Seconds(float64(i)*dt)))
	}
	integ := sum * dt
	if stats.RelErr(integ, float64(r.Energy)) > 1e-4 {
		t.Errorf("∫P dt = %v, energy = %v", integ, r.Energy)
	}
	// Out-of-range queries return 0.
	if r.PowerAt(-1) != 0 || r.PowerAt(r.Duration+1) != 0 {
		t.Error("out-of-range power should be 0")
	}
}

func TestRunRepeatedAndAggregate(t *testing.T) {
	e, err := New(machine.CoreI7950(), DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	spec := KernelSpec{W: 1e8, Q: 1e8, Precision: machine.Single}
	runs, err := e.RunRepeated(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 100 {
		t.Fatalf("got %d runs", len(runs))
	}
	mt, me, mp, err := Aggregate(runs)
	if err != nil {
		t.Fatal(err)
	}
	if mt <= 0 || me <= 0 || mp <= 0 {
		t.Errorf("aggregate = %v %v %v", mt, me, mp)
	}
	if stats.RelErr(float64(mp), float64(me)/float64(mt)) > 1e-12 {
		t.Error("mean power inconsistent with mean energy/time")
	}
	if _, err := e.RunRepeated(spec, 0); err == nil {
		t.Error("reps=0 should fail")
	}
	if _, _, _, err := Aggregate(nil); err == nil {
		t.Error("empty aggregate should fail")
	}
}

func TestPropSimObservablesPositiveAndConsistent(t *testing.T) {
	e, err := New(machine.GTX580(), DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	f := func(rw, ri float64, dp bool) bool {
		w := 1e6 * (1 + math.Abs(math.Mod(rw, 1e4)))
		i := math.Exp2(math.Mod(ri, 8)) // intensity 2^-8 .. 2^8
		prec := machine.Single
		if dp {
			prec = machine.Double
		}
		r, err := e.Run(KernelSpec{W: w, Q: w / i, Precision: prec})
		if err != nil {
			return false
		}
		if r.Duration <= 0 || r.Energy <= 0 || r.AvgPower <= 0 {
			return false
		}
		// Observed power equals E/T by construction.
		return stats.RelErr(float64(r.AvgPower), float64(r.Energy)/float64(r.Duration)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropSimRespectsRooflineUpperBounds(t *testing.T) {
	// Simulated measurements never beat the model's roofline/arch line:
	// normalized performance <= the curves (within noise slack).
	m := machine.CoreI7950() // uncapped keeps this clean
	e, err := New(m, DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	p := core.FromMachine(m, machine.Single)
	f := func(ri float64) bool {
		i := math.Exp2(math.Mod(ri, 7))
		k := core.KernelAt(1e9, i)
		r, err := e.Run(KernelSpec{W: k.W, Q: k.Q, Precision: machine.Single, Tuning: e.OptimalTuning()})
		if err != nil {
			return false
		}
		perfT := (k.W / p.PeakFlopsRate()) / float64(r.Duration)
		perfE := k.W * p.EpsFlopHat() / float64(r.Energy)
		return perfT <= p.RooflineTime(i)*1.05 && perfE <= p.ArchlineEnergy(i)*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEnergyBreakdownSums(t *testing.T) {
	e := idealEngine(t, machine.GTX580())
	r, err := e.Run(KernelSpec{W: 1e10, Q: 1e9, Precision: machine.Double})
	if err != nil {
		t.Fatal(err)
	}
	sum := float64(r.EnergyFlops + r.EnergyMem + r.EnergyConst)
	if stats.RelErr(sum, float64(r.TrueEnergy)) > 1e-12 {
		t.Errorf("breakdown %v != true energy %v", sum, r.TrueEnergy)
	}
	if r.EnergyFlops <= 0 || r.EnergyMem <= 0 || r.EnergyConst <= 0 {
		t.Error("all components should be positive here")
	}
	// Throttling adds only constant energy: flop and memory parts are
	// unchanged while EnergyConst grows.
	p := core.FromMachine(machine.GTX580(), machine.Single)
	k := core.KernelAt(1e10, p.BalanceTime())
	rt, err := e.Run(KernelSpec{W: k.W, Q: k.Q, Precision: machine.Single})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Throttled {
		t.Fatal("setup: expected throttled run")
	}
	wantFlops := k.W * float64(machine.GTX580().SP.EnergyPerFlop)
	if stats.RelErr(float64(rt.EnergyFlops), wantFlops) > 1e-9 {
		t.Errorf("throttling changed flop energy: %v vs %v", rt.EnergyFlops, wantFlops)
	}
}

func TestRunWithDerivedStreamReproducible(t *testing.T) {
	m := machine.GTX580()
	e, err := New(m, DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	spec := KernelSpec{W: 1e9, Q: 1e9, Precision: machine.Single}
	a, err := e.RunWith(stats.DeriveRand(e.Seed(), 1, 2, 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunWith(stats.DeriveRand(e.Seed(), 1, 2, 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("equal derivation labels must reproduce the run exactly")
	}
	c, err := e.RunWith(stats.DeriveRand(e.Seed(), 3, 2, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration == c.Duration {
		t.Error("different labels should give a different noise draw")
	}
	if e.Seed() != 42 {
		t.Errorf("Seed() = %d", e.Seed())
	}
}

func TestRunWithDoesNotTouchEngineStream(t *testing.T) {
	// Two engines with the same seed: one interleaves derived-stream
	// runs between its sequential runs, the other does not. The
	// sequential streams must stay in lockstep — parallel derivation is
	// invisible to sequential callers.
	m := machine.GTX580()
	spec := KernelSpec{W: 1e9, Q: 1e9, Precision: machine.Single}
	mk := func() *Engine {
		e, err := New(m, DefaultConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for i := 0; i < 5; i++ {
		ra, err := a.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.RunWith(stats.DeriveRand(b.Seed(), uint64(i)), spec); err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if *ra != *rb {
			t.Fatalf("iteration %d: derived runs perturbed the sequential stream", i)
		}
	}
}
