package dvfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// Candidate is one platform-and-frequency a kernel can be dispatched
// to.
type Candidate struct {
	// Machine is the catalog key.
	Machine string
	// Point names the pinned operating point.
	Point string
	// Label is "machine@point", the report identifier.
	Label string
	// P are the pinned model parameters.
	P core.Params
}

// DefaultPlatforms returns the study's fixed candidate set, baseline
// first: the CPU at full clock, then progressively beefier downclocked
// and full-clock GPU variants. Scan order is the tiebreak, so the list
// order is part of the study's contract.
func DefaultPlatforms() ([]Candidate, error) {
	specs := []struct{ mkey, point string }{
		{"i7-950", "1.00x"}, // baseline
		{"i7-950", "0.70x"},
		{"gtx580-4sm", "0.55x"},
		{"gtx580-4sm", "1.00x"},
		{"gtx580", "0.70x"},
		{"gtx580", "1.00x"},
	}
	out := make([]Candidate, 0, len(specs))
	for _, s := range specs {
		m, ok := machine.Find(s.mkey)
		if !ok {
			return nil, fmt.Errorf("dvfs: unknown machine %q", s.mkey)
		}
		op, ok := m.Point(s.point)
		if !ok {
			return nil, fmt.Errorf("dvfs: machine %q has no operating point %q", s.mkey, s.point)
		}
		out = append(out, Candidate{
			Machine: s.mkey,
			Point:   s.point,
			Label:   s.mkey + "@" + s.point,
			P:       core.FromMachineAt(m, machine.Double, op),
		})
	}
	return out, nil
}

// adopt is the cluster router's eq. 10 incumbent rule: the candidate
// with capped time t and energy e replaces the incumbent (bestT, bestE)
// when it is faster and greener, greener without more than doubling the
// time, or faster while staying within 5% of the incumbent's energy.
func adopt(bestT, bestE, t, e float64) bool {
	greenup := bestE / e
	speedup := bestT / t
	switch core.ClassifyRatios(speedup, greenup) {
	case core.Both:
		return true
	case core.GreenupOnly:
		return t <= 2*bestT
	case core.SpeedupOnly:
		return greenup >= 0.95
	default:
		return false
	}
}

// Dispatch picks the platform-and-frequency for kernel k: an incumbent
// scan in platform order (plats[0] is the baseline) under the router's
// eq. 10 rules, on capped time and energy. It returns the winning
// index.
func Dispatch(plats []Candidate, k core.Kernel) int {
	best := 0
	bestT := plats[0].P.CappedTime(k)
	bestE := plats[0].P.CappedEnergy(k)
	for i := 1; i < len(plats); i++ {
		t := plats[i].P.CappedTime(k)
		e := plats[i].P.CappedEnergy(k)
		if adopt(bestT, bestE, t, e) {
			best, bestT, bestE = i, t, e
		}
	}
	return best
}

// Choice is the dispatch outcome at one intensity.
type Choice struct {
	// Intensity is the grid intensity in flop/byte.
	Intensity float64 `json:"intensity"`
	// Platform is the winning candidate's label.
	Platform string `json:"platform"`
	// Greenup is baseline energy over the winner's.
	Greenup float64 `json:"greenup"`
	// Speedup is baseline time over the winner's.
	Speedup float64 `json:"speedup"`
	// Class is the eq. 10 classification of the win vs the baseline.
	Class string `json:"class"`
	// TimeS is the winner's capped time.
	TimeS float64 `json:"time_s"`
	// EnergyJ is the winner's capped energy.
	EnergyJ float64 `json:"energy_j"`
}

// DispatchTable is the heterogeneous dispatch scenario's report.
type DispatchTable struct {
	// Baseline is plats[0]'s label.
	Baseline string `json:"baseline"`
	// Platforms lists every candidate label, scan order.
	Platforms []string `json:"platforms"`
	// Choices are the per-intensity outcomes, grid order.
	Choices []Choice `json:"choices"`
}

// dispatchTable evaluates every candidate over the intensity grid with
// the columnar EvalInto path and replays the incumbent scan per column.
// The scalar Dispatch and this columnar scan agree exactly (the
// differential test pins it).
func dispatchTable(grid []float64, work float64) (DispatchTable, error) {
	plats, err := DefaultPlatforms()
	if err != nil {
		return DispatchTable{}, err
	}
	n := len(grid)
	w := make([]float64, n)
	for j := range w {
		w[j] = work
	}
	q := make([]float64, n)
	core.QAtInto(q, w, grid)
	batches := make([]core.Batch, len(plats))
	for i := range plats {
		plats[i].P.EvalInto(&batches[i], w, q)
	}
	out := DispatchTable{Baseline: plats[0].Label}
	for i := range plats {
		out.Platforms = append(out.Platforms, plats[i].Label)
	}
	for j := 0; j < n; j++ {
		best := 0
		bestT := batches[0].CappedTime[j]
		bestE := batches[0].CappedEnergy[j]
		for i := 1; i < len(plats); i++ {
			t := batches[i].CappedTime[j]
			e := batches[i].CappedEnergy[j]
			if adopt(bestT, bestE, t, e) {
				best, bestT, bestE = i, t, e
			}
		}
		greenup := batches[0].CappedEnergy[j] / bestE
		speedup := batches[0].CappedTime[j] / bestT
		out.Choices = append(out.Choices, Choice{
			Intensity: grid[j],
			Platform:  plats[best].Label,
			Greenup:   greenup,
			Speedup:   speedup,
			Class:     core.ClassifyRatios(speedup, greenup).String(),
			TimeS:     bestT,
			EnergyJ:   bestE,
		})
	}
	return out, nil
}
