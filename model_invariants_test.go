package energyroofline

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Cross-catalog invariants: every machine in the catalog, at both
// precisions, must satisfy the model's structural laws. These are the
// claims of §II–§III checked as universal statements rather than
// per-platform pins.
func TestModelInvariantsAcrossCatalog(t *testing.T) {
	for key, m := range Machines() {
		for _, prec := range []Precision{Single, Double} {
			p := FromMachine(m, prec)
			name := key + "/" + prec.String()

			// Balance points are positive and finite.
			for label, v := range map[string]float64{
				"Bτ":       p.BalanceTime(),
				"Bε":       p.BalanceEnergy(),
				"B̂ε(y=½)": p.HalfEfficiencyIntensity(),
			} {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, label, v)
				}
			}

			// Roofline knee is exact; arch line crosses ½ exactly at the
			// half-efficiency intensity.
			if p.RooflineTime(p.BalanceTime()) != 1 {
				t.Errorf("%s: roofline knee broken", name)
			}
			if math.Abs(p.ArchlineEnergy(p.HalfEfficiencyIntensity())-0.5) > 1e-9 {
				t.Errorf("%s: arch half-crossing broken", name)
			}

			// The power line peaks at Bτ.
			bt := p.BalanceTime()
			for _, f := range []float64{0.25, 0.5, 2, 8} {
				if p.PowerLine(bt*f) > p.MaxPower()+1e-9 {
					t.Errorf("%s: power exceeds max at %v·Bτ", name, f)
				}
			}

			// Energy efficiency implies time efficiency whenever the gap
			// is adverse (§II-D corollary).
			if p.HalfEfficiencyIntensity() >= bt {
				k := KernelAt(1e9, p.HalfEfficiencyIntensity()*1.01)
				if p.TimeBound(k).String() != "compute-bound" {
					t.Errorf("%s: I > B̂ε should imply compute-bound in time", name)
				}
			}

			// DVFS threshold law: race-to-halt is optimal for compute-
			// bound work iff π0 ≥ 2·πflop.
			k := KernelAt(1e9, 1e9)
			s, _, err := p.OptimalFreqScale(k, 0.1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantRace := p.Pi0 >= 2*p.PiFlop()
			if (s == 1) != wantRace {
				t.Errorf("%s: DVFS optimum s=%v contradicts π0 ≥ 2πflop = %v", name, s, wantRace)
			}

			// Greenup hard limit: eq. (10) RHS never exceeds 1 + Bε/I.
			for _, i := range []float64{0.5, 2, 16} {
				for _, mm := range []float64{2, 16, 1e6} {
					if p.GreenupConditionRHS(i, mm) > p.MaxExtraWork(i)+1e-12 {
						t.Errorf("%s: eq.(10) RHS above its m→∞ limit", name)
					}
				}
			}

		}
	}
}

// Docs-vs-code consistency: every registered experiment must be
// documented in DESIGN.md, so the per-experiment index cannot silently
// drift from the registry.
func TestDesignDocumentsEveryExperiment(t *testing.T) {
	data, err := readRepoFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(data)
	for _, id := range exp.IDs() {
		if !strings.Contains(design, id) {
			t.Errorf("experiment %q not mentioned in DESIGN.md", id)
		}
	}
	// And the measured platforms appear by name.
	for _, want := range []string{"GTX 580", "i7-950", "Fermi"} {
		if !strings.Contains(design, want) {
			t.Errorf("platform %q not mentioned in DESIGN.md", want)
		}
	}
	if len(machine.Catalog()) < 4 {
		t.Error("catalog shrank unexpectedly")
	}
}

// readRepoFile reads a file relative to the repository root (the
// package directory for root-level tests).
func readRepoFile(name string) ([]byte, error) {
	return os.ReadFile(name)
}

// randomParams draws a physically plausible parameter set spanning
// several orders of magnitude around the catalog's regime: CPU-to-GPU
// throughputs, pJ-scale energies, and constant power from 0 to
// hundreds of Watts.
func randomParams(rng *rand.Rand) core.Params {
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	return core.Params{
		TauFlop: logUniform(1e-13, 1e-9), // 1 GFLOP/s … 10 TFLOP/s
		TauMem:  logUniform(1e-12, 1e-9), // 1 GB/s … 1 TB/s
		EpsFlop: logUniform(1e-12, 1e-9), // 1 pJ … 1 nJ per flop
		EpsMem:  logUniform(1e-11, 1e-8), // 10 pJ … 10 nJ per byte
		Pi0:     rng.Float64() * 300,     // 0 … 300 W
	}
}

// TestModelPropertiesRandomized checks the model's order-theoretic and
// identity properties on a few hundred random machines rather than the
// four catalog entries. Seeds derive from stats.DeriveSeed so failures
// reproduce exactly.
func TestModelPropertiesRandomized(t *testing.T) {
	const trials = 300
	relTol := func(a, b float64) float64 {
		d := math.Abs(a - b)
		den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
		return d / den
	}
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(stats.DeriveSeed(42, uint64(i))))
		p := randomParams(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid params: %v", i, err)
		}

		// Monotonicity in the energy coefficients: raising ε_mem makes
		// energy balance harder (Bε and B̂ε move right); raising ε_flop
		// makes it easier (both move left). B̂ε is the fixed point of
		// B̂ε(I) = η·Bε + (1−η)·max(0, Bτ−I), which decreases pointwise
		// in ε_flop and increases pointwise in ε_mem.
		up := p
		up.EpsMem *= 1 + rng.Float64()
		if up.BalanceEnergy() < p.BalanceEnergy() {
			t.Errorf("trial %d: Bε not monotone increasing in εmem", i)
		}
		if up.HalfEfficiencyIntensity() < p.HalfEfficiencyIntensity()*(1-1e-12) {
			t.Errorf("trial %d: B̂ε not monotone increasing in εmem", i)
		}
		down := p
		down.EpsFlop *= 1 + rng.Float64()
		if down.BalanceEnergy() > p.BalanceEnergy() {
			t.Errorf("trial %d: Bε not monotone decreasing in εflop", i)
		}
		if down.HalfEfficiencyIntensity() > p.HalfEfficiencyIntensity()*(1+1e-12) {
			t.Errorf("trial %d: B̂ε not monotone decreasing in εflop", i)
		}

		// Energy is non-increasing in intensity at fixed work: more
		// flops per byte means less traffic and no more time.
		w := 1e6 * math.Exp(rng.Float64()*math.Log(1e6)) // 1e6 … 1e12 flops
		lastE := math.Inf(1)
		for _, scale := range []float64{0.125, 0.5, 1, 2, 8, 64} {
			k := core.KernelAt(w, p.BalanceTime()*scale)
			e := p.Energy(k)
			if e > lastE*(1+1e-12) {
				t.Errorf("trial %d: energy increased with intensity at %v·Bτ", i, scale)
			}
			lastE = e

			// Eq. (4) and the refactored eq. (5) are the same number.
			if relTol(e, p.EnergyEq5(k)) > 1e-9 {
				t.Errorf("trial %d: Energy %g != EnergyEq5 %g", i, e, p.EnergyEq5(k))
			}
			// Average power never exceeds the power line's peak.
			if p.AveragePower(k) > p.MaxPower()*(1+1e-12) {
				t.Errorf("trial %d: average power above max power", i)
			}
		}

		// At the time-balance point the two pipelines take equal time
		// and the roofline sits exactly at its knee.
		kb := core.KernelAt(w, p.BalanceTime())
		if relTol(p.TimeFlops(kb), p.TimeMem(kb)) > 1e-12 {
			t.Errorf("trial %d: TimeFlops != TimeMem at Bτ", i)
		}
		if p.RooflineTime(p.BalanceTime()) != 1 {
			t.Errorf("trial %d: roofline knee != 1 at Bτ", i)
		}

		// The power line is bounded by the sum of the full compute and
		// full memory power demands plus the constant draw.
		bound := p.Pi0 + p.PiFlop() + p.EpsMem/p.TauMem
		for _, scale := range []float64{0.1, 0.5, 1, 2, 10} {
			if pl := p.PowerLine(p.BalanceTime() * scale); pl > bound*(1+1e-12) {
				t.Errorf("trial %d: PowerLine(%v·Bτ) = %g exceeds π0+πflop+πmem = %g", i, scale, pl, bound)
			}
		}

		// The arch line is non-decreasing in intensity and respects its
		// asymptotes.
		prev := 0.0
		for _, scale := range []float64{0.01, 0.1, 1, 10, 100} {
			y := p.ArchlineEnergy(p.BalanceTime() * scale)
			if y < prev-1e-12 || y < 0 || y > 1 {
				t.Errorf("trial %d: arch line not monotone in [0,1]", i)
			}
			prev = y
		}
	}
}
