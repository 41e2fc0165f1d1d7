package dvfs

import (
	"repro/internal/core"
	"repro/internal/machine"
)

// OptFreqPoint is the energy-minimal operating point at one intensity.
type OptFreqPoint struct {
	// Intensity is the grid intensity in flop/byte.
	Intensity float64 `json:"intensity"`
	// Point names the energy-minimal operating point (slowest wins
	// ties).
	Point string `json:"point"`
	// FreqScale is that point's clock fraction.
	FreqScale float64 `json:"freq_scale"`
	// EnergyJ is the kernel energy at the optimal point.
	EnergyJ float64 `json:"energy_j"`
	// BaseEnergyJ is the kernel energy at full clock.
	BaseEnergyJ float64 `json:"base_energy_j"`
	// SavingsFrac is 1 − EnergyJ/BaseEnergyJ, the DVFS saving.
	SavingsFrac float64 `json:"savings_frac"`
}

// OptFreqCurve is one (machine, precision) pair's optimal-frequency
// sweep.
type OptFreqCurve struct {
	// Machine is the studied catalog key.
	Machine string `json:"machine"`
	// Precision is the studied precision name.
	Precision string `json:"precision"`
	// Points are the per-intensity optima, grid order.
	Points []OptFreqPoint `json:"points"`
	// Monotone reports whether the optimal clock fraction never
	// decreases as intensity grows — the theory's prediction for every
	// synthesized curve.
	Monotone bool `json:"monotone"`
}

// optFreqCurve sweeps every operating point of m through the batch
// evaluator and records the per-intensity energy argmin. The per-point
// energies come from core.Params.EvalInto — the same fused columnar
// path everything else uses; there is no scalar sweep.
func optFreqCurve(m *machine.Machine, key string, prec machine.Precision, work float64, grid []float64) OptFreqCurve {
	curve := m.OperatingPoints
	n := len(grid)
	w := make([]float64, n)
	for j := range w {
		w[j] = work
	}
	q := make([]float64, n)
	core.QAtInto(q, w, grid)

	energies := make([][]float64, len(curve))
	var b core.Batch
	for pi, op := range curve {
		core.FromMachineAt(m, prec, op).EvalInto(&b, w, q)
		energies[pi] = append([]float64(nil), b.Energy...)
	}
	base := energies[len(curve)-1]

	out := OptFreqCurve{Machine: key, Precision: prec.String(), Monotone: true}
	prev := -1
	for j := range grid {
		// Scan slowest → fastest with a strict improvement test: ties go
		// to the slowest clock, which preserves monotonicity.
		best := 0
		for pi := 1; pi < len(curve); pi++ {
			if energies[pi][j] < energies[best][j] {
				best = pi
			}
		}
		if best < prev {
			out.Monotone = false
		}
		prev = best
		op := curve[best]
		e := energies[best][j]
		out.Points = append(out.Points, OptFreqPoint{
			Intensity:   grid[j],
			Point:       op.Name,
			FreqScale:   op.FreqScale,
			EnergyJ:     e,
			BaseEnergyJ: base[j],
			SavingsFrac: 1 - e/base[j],
		})
	}
	return out
}
