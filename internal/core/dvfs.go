package core

import (
	"errors"
	"math"

	"repro/internal/machine"
)

// DVFS extension: the paper frames race-to-halt (§II-D, §V-B) and the
// DVFS literature (§VI) as strategies the balance gap arbitrates. This
// file makes that quantitative under the standard voltage-frequency
// coupling, the s-law: scaling the compute clock by s ∈ (0, 1] stretches
// the time per flop by 1/s and scales the dynamic energy per flop by s²
// (E ∝ V² with V ∝ f), while memory throughput, memory energy, and
// constant power are unaffected:
//
//	T(s) = max(W·τflop/s, Q·τmem)
//	E(s) = W·εflop·s² + Q·εmem + π0·T(s)
//
// The s-law is one operating point, machine.SLawPoint(s), so T(s) and
// E(s) are Time and Energy of AtOperatingPoint(machine.SLawPoint(s)).
// Minimising E(s) in the compute-bound regime yields the closed form
//
//	s* = (ε0 / (2·εflop))^(1/3),   ε0 = π0·τflop,
//
// so race-to-halt (s* ≥ 1) is exactly the condition ε0 ≥ 2·εflop: the
// constant energy burned per flop-time must dominate twice the flop's
// dynamic energy. With π0 = 0 the optimum is always the slowest
// available clock — the analytic counterpart of the reversal the paper
// predicts when architects drive constant power to zero.

// AtOperatingPoint folds a machine.OperatingPoint's scale factors into
// the parameters: τ and ε multiply by their scales, π0 by Pi0Scale, and
// the power cap — an electrical limit of the board — is unchanged. It
// is the one place a clock fraction scales the model: the s-law above
// is machine.SLawPoint, and the DVFS catalog curves are measured or
// synthesized V(s) laws.
func (p Params) AtOperatingPoint(op machine.OperatingPoint) Params {
	return Params{
		TauFlop:  p.TauFlop * op.TauFlopScale,
		TauMem:   p.TauMem * op.TauMemScale,
		EpsFlop:  p.EpsFlop * op.EpsFlopScale,
		EpsMem:   p.EpsMem * op.EpsMemScale,
		Pi0:      p.Pi0 * op.Pi0Scale,
		PowerCap: p.PowerCap,
	}
}

// FromMachineAt instantiates model parameters for machine m at
// precision prec, pinned to operating point op.
func FromMachineAt(m *machine.Machine, prec machine.Precision, op machine.OperatingPoint) Params {
	return FromMachine(m, prec).AtOperatingPoint(op)
}

// CriticalFreqScale returns s* = (ε0/(2·εflop))^(1/3), the unclamped
// stationary point of E(s) in the compute-bound regime.
func (p Params) CriticalFreqScale() float64 {
	return math.Cbrt(p.Eps0() / (2 * p.EpsFlop))
}

// OptimalFreqScale minimises E(s) over s ∈ [sMin, 1] and returns the
// minimiser and its energy. E(s) is piecewise smooth with one interior
// stationary point per piece, so the minimum is attained at one of:
// the bounds, the compute-bound stationary point s*, or the regime
// boundary s = I/Bτ (where the kernel switches between compute- and
// memory-bound under scaling). Each candidate is priced at its s-law
// operating point.
func (p Params) OptimalFreqScale(k Kernel, sMin float64) (s, energy float64, err error) {
	if sMin <= 0 || sMin > 1 {
		return 0, 0, errors.New("core: sMin must be in (0, 1]")
	}
	if k.W <= 0 {
		return 0, 0, errors.New("core: kernel must have positive work")
	}
	candidates := []float64{sMin, 1}
	if star := p.CriticalFreqScale(); star > sMin && star < 1 {
		candidates = append(candidates, star)
	}
	// Regime boundary: W·τflop/s = Q·τmem ⇒ s = I/Bτ (for finite I).
	if k.Q > 0 {
		if edge := k.Intensity() / p.BalanceTime(); edge > sMin && edge < 1 {
			candidates = append(candidates, edge)
		}
	}
	best := math.Inf(1)
	bestS := sMin
	for _, c := range candidates {
		if e := p.AtOperatingPoint(machine.SLawPoint(c)).Energy(k); e < best {
			best, bestS = e, c
		}
	}
	return bestS, best, nil
}
