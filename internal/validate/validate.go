// Package validate checks the model against the execution substrate the
// way §VII summarises the experiments: "at least the predictions appear
// empirically to give upper-bounds on power and lower-bounds on time."
// It sweeps the (machine × precision × intensity) lattice, measures
// each point, and verifies the bound structure plus the quantitative
// agreement between model curves and measurements.
package validate

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Case is one lattice point's outcome.
type Case struct {
	// Machine identifies the platform.
	Machine string
	// Precision identifies the floating-point width.
	Precision machine.Precision
	// Intensity is the kernel's flop:byte ratio.
	Intensity float64
	// Throttled reports power-cap interference.
	Throttled bool
	// TimeRatio is measured T over model T: ≥ 1 means the model is a
	// valid lower bound on time (up to noise slack).
	TimeRatio float64
	// PowerRatio is measured P over model P(I): ≤ 1 means the model is
	// a valid upper bound on power.
	PowerRatio float64
	// EnergyRatio is measured E over model E.
	EnergyRatio float64
}

// Summary aggregates a validation sweep.
type Summary struct {
	// Cases holds every lattice point.
	Cases []Case
	// TimeBoundViolations counts points where measured time undercuts
	// the model beyond the noise slack.
	TimeBoundViolations int
	// PowerBoundViolations counts points where measured power exceeds
	// the model beyond the noise slack.
	PowerBoundViolations int
	// WorstTimeRatio and WorstPowerRatio are the extreme ratios
	// observed (min time ratio, max power ratio).
	WorstTimeRatio, WorstPowerRatio float64
	// MeanAbsEnergyErr is the mean |EnergyRatio−1| over unthrottled
	// points: how tightly the arch line tracks measurements.
	MeanAbsEnergyErr float64
	// Slack is the relative tolerance used for violation counting.
	Slack float64
}

// Config controls a validation sweep. The lattice is fixed: machines
// gtx580 and i7-950, both precisions, and the intensity grid
// LogGrid(0.25, 64, 9), checked at a slack of 3%.
type Config struct {
	// Reps per point (default 5).
	Reps int
	// Seed drives the noise.
	Seed int64
}

// The fixed lattice: the catalog keys swept, in engine-seed order, and
// the intensity grid in flop/byte.
var (
	machines    = []string{"gtx580", "i7-950"}
	intensities = core.LogGrid(0.25, 64, 9)
)

// slack is the violation tolerance, covering the 1% time and 1.5% power
// measurement noises.
const slack = 0.03

// Run executes the validation sweep.
func Run(cfg Config) (*Summary, error) {
	if cfg.Reps == 0 {
		cfg.Reps = 5
	}
	if cfg.Reps < 1 {
		return nil, errors.New("validate: reps must be >= 1")
	}
	catalog := machine.Catalog()
	s := &Summary{Slack: slack, WorstTimeRatio: math.Inf(1)}
	var energySum float64
	var energyN int
	// Model denominators come from the closed forms' columnar batch
	// path, one (W, Q) column pair per (machine, precision), which is
	// bit-identical to the scalar methods.
	nI := len(intensities)
	w := make([]float64, nI)
	q := make([]float64, nI)
	for j := range w {
		w[j] = 1e9
	}
	pl := make([]float64, nI)
	var mb core.Batch
	specs := make([]sim.KernelSpec, cfg.Reps)
	runs := make([]sim.Run, cfg.Reps)
	for mi, key := range machines {
		m := catalog[key]
		eng, err := sim.New(m, sim.DefaultConfig(cfg.Seed+int64(mi)*97))
		if err != nil {
			return nil, err
		}
		for _, prec := range []machine.Precision{machine.Single, machine.Double} {
			p := core.FromMachine(m, prec)
			core.QAtInto(q, w, intensities)
			p.EvalInto(&mb, w, q)
			p.PowerLineInto(pl, intensities)
			for j, i := range intensities {
				spec := sim.KernelSpec{W: w[j], Q: q[j], Precision: prec, Tuning: eng.OptimalTuning()}
				for r := range specs {
					specs[r] = spec
				}
				if err := eng.RunBatch(nil, specs, runs); err != nil {
					return nil, err
				}
				var sumT, sumE float64
				throttled := false
				for r := range runs {
					sumT += float64(runs[r].Duration)
					sumE += float64(runs[r].Energy)
					throttled = throttled || runs[r].Throttled
				}
				n := float64(cfg.Reps)
				c := Case{
					Machine:     m.Name,
					Precision:   prec,
					Intensity:   i,
					Throttled:   throttled,
					TimeRatio:   (sumT / n) / mb.Time[j],
					PowerRatio:  (sumE / sumT) / pl[j],
					EnergyRatio: (sumE / n) / mb.Energy[j],
				}
				s.Cases = append(s.Cases, c)
				if c.TimeRatio < 1-slack {
					s.TimeBoundViolations++
				}
				if c.PowerRatio > 1+slack {
					s.PowerBoundViolations++
				}
				if c.TimeRatio < s.WorstTimeRatio {
					s.WorstTimeRatio = c.TimeRatio
				}
				if c.PowerRatio > s.WorstPowerRatio {
					s.WorstPowerRatio = c.PowerRatio
				}
				if !throttled {
					energySum += math.Abs(c.EnergyRatio - 1)
					energyN++
				}
			}
		}
	}
	if energyN > 0 {
		s.MeanAbsEnergyErr = energySum / float64(energyN)
	}
	return s, nil
}

// Render formats the summary.
func (s *Summary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "validated %d lattice points (slack %.1f%%)\n", len(s.Cases), s.Slack*100)
	fmt.Fprintf(&sb, "  time lower-bound violations:  %d (worst measured/model = %.4f)\n",
		s.TimeBoundViolations, s.WorstTimeRatio)
	fmt.Fprintf(&sb, "  power upper-bound violations: %d (worst measured/model = %.4f)\n",
		s.PowerBoundViolations, s.WorstPowerRatio)
	fmt.Fprintf(&sb, "  mean |energy error| on unthrottled points: %.2f%%\n", s.MeanAbsEnergyErr*100)
	return sb.String()
}
