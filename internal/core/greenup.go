package core

import (
	"errors"
	"math"
)

// Tradeoff describes a work–communication trade-off (§VII): relative to
// a baseline kernel (W, Q), the new algorithm performs f·W flops and
// Q/m bytes of traffic, with f > 1 and m > 1.
type Tradeoff struct {
	F float64 // extra-work factor, > 1 for a true trade-off
	M float64 // communication-reduction factor, > 1
}

// Validate reports whether the trade-off factors are usable (positive).
// The paper's definition requires f > 1 and m > 1 for a "true"
// trade-off; factors in (0, 1] are still meaningful (pure improvements)
// and accepted.
func (t Tradeoff) Validate() error {
	if t.F <= 0 || t.M <= 0 {
		return errors.New("core: trade-off factors must be positive")
	}
	return nil
}

// Apply returns the transformed kernel (f·W, Q/m).
func (t Tradeoff) Apply(k Kernel) Kernel {
	return Kernel{W: t.F * k.W, Q: k.Q / t.M}
}

// Greenup returns ΔE = E_{1,1}/E_{f,m}, the energy-efficiency
// improvement of the transformed algorithm over the baseline, computed
// exactly from the full energy model (π0 included).
func (p Params) Greenup(base Kernel, t Tradeoff) float64 {
	return p.Energy(base) / p.Energy(t.Apply(base))
}

// Speedup returns ΔT = T_{1,1}/T_{f,m} under the overlap time model.
func (p Params) Speedup(base Kernel, t Tradeoff) float64 {
	return p.Time(base) / p.Time(t.Apply(base))
}

// GreenupConditionRHS returns the eq. (10) bound for the π0 = 0 model:
// a greenup requires f < 1 + (m−1)/m · B_ε/I, with I the baseline
// intensity.
func (p Params) GreenupConditionRHS(baseIntensity float64, m float64) float64 {
	return 1 + (m-1)/m*p.BalanceEnergy()/baseIntensity
}

// GreenupPredicted reports whether eq. (10) predicts ΔE > 1 for the
// trade-off at the given baseline intensity (π0 = 0 model).
func (p Params) GreenupPredicted(baseIntensity float64, t Tradeoff) bool {
	return t.F < p.GreenupConditionRHS(baseIntensity, t.M)
}

// SpeedupConditionRHS returns the closed-form bound on f for the
// trade-off (f·W, Q/m) to be a *speedup* under the overlap time model —
// the companion analysis the paper defers to its technical report. With
// baseline intensity I and new intensity f·m·I, the exact condition
// ΔT > 1 reduces to f < rhs where:
//
//   - baseline memory-bound, new memory-bound (Bτ ≥ f·m·I): any f works
//     while regimes hold — the bound is m·(threshold handled below);
//   - generally: ΔT = max(1, Bτ/I) / (f·max(1, Bτ/(f·m·I))), giving
//     rhs = m                  if I < Bτ and f·m·I ≤ Bτ  (both memory-bound)
//     rhs = m·I/Bτ · ...       boundary folded by the max terms.
//
// The implementation evaluates the exact piecewise form rather than
// enumerating regimes: rhs is the unique f at which ΔT = 1.
func (p Params) SpeedupConditionRHS(baseIntensity float64, m float64) float64 {
	bt := p.BalanceTime()
	// ΔT(f) = max(1, Bτ/I) / (f·max(1, Bτ/(f·m·I))) is strictly
	// decreasing in f (in both branches of the inner max), so bisect.
	deltaT := func(f float64) float64 {
		num := math.Max(1, bt/baseIntensity)
		den := f * math.Max(1, bt/(f*m*baseIntensity))
		return num / den
	}
	lo, hi := 1e-9, 1e9
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if deltaT(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// SpeedupPredicted reports whether the closed-form condition predicts
// ΔT > 1 for the trade-off at the given baseline intensity.
func (p Params) SpeedupPredicted(baseIntensity float64, t Tradeoff) bool {
	return t.F < p.SpeedupConditionRHS(baseIntensity, t.M)
}

// MaxExtraWork returns the hard upper limit on f as m → ∞:
// f < 1 + B_ε/I (§VII). If the baseline is compute-bound in time
// (I ≥ B_τ), the tightest such bound over compute-bound baselines is
// 1 + B_ε/B_τ, returned by MaxExtraWorkComputeBound.
func (p Params) MaxExtraWork(baseIntensity float64) float64 {
	return 1 + p.BalanceEnergy()/baseIntensity
}

// MaxExtraWorkComputeBound returns 1 + B_ε/B_τ, the eq. (10) limit on
// extra work for any baseline already compute-bound in time.
func (p Params) MaxExtraWorkComputeBound() float64 {
	return 1 + p.BalanceEnergy()/p.BalanceTime()
}

// TradeoffOutcome is the four-way classification of a trade-off.
type TradeoffOutcome int

const (
	// Neither: the transformed algorithm is slower and less efficient.
	Neither TradeoffOutcome = iota
	// SpeedupOnly: faster but not greener.
	SpeedupOnly
	// GreenupOnly: greener but not faster.
	GreenupOnly
	// Both: faster and greener.
	Both
)

// String implements fmt.Stringer.
func (o TradeoffOutcome) String() string {
	switch o {
	case SpeedupOnly:
		return "speedup only"
	case GreenupOnly:
		return "greenup only"
	case Both:
		return "speedup and greenup"
	default:
		return "neither"
	}
}

// ClassifyRatios maps a (speedup, greenup) ratio pair onto the eq. (10)
// vocabulary: ratios above one mean the transformed algorithm is faster
// / greener than the baseline. It is the shared classifier behind
// Classify and the cluster router's energy-aware policy.
func ClassifyRatios(speedup, greenup float64) TradeoffOutcome {
	speed := speedup > 1
	green := greenup > 1
	switch {
	case speed && green:
		return Both
	case speed:
		return SpeedupOnly
	case green:
		return GreenupOnly
	default:
		return Neither
	}
}

// Classify evaluates the trade-off exactly (full model, π0 included)
// and reports which of speedup/greenup it achieves.
func (p Params) Classify(base Kernel, t Tradeoff) TradeoffOutcome {
	return ClassifyRatios(p.Speedup(base, t), p.Greenup(base, t))
}

// LogGrid returns n intensities spaced evenly in log2 between lo and hi
// inclusive. It is the x-axis used by every roofline/arch-line figure.
func LogGrid(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return nil
	}
	out := make([]float64, n)
	l0 := math.Log2(lo)
	l1 := math.Log2(hi)
	for i := range out {
		out[i] = math.Exp2(l0 + (l1-l0)*float64(i)/float64(n-1))
	}
	return out
}
