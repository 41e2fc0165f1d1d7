// Package dvfs studies the frequency-scaling dimension the machine
// catalog's OperatingPoint curves add to the energy roofline, in three
// scenarios:
//
//   - Optimal frequency: for every (machine, precision) with a DVFS
//     curve, sweep each operating point through the batch model
//     evaluator and record the energy-minimal point per operational
//     intensity. Under the synthesized voltage-frequency law the
//     optimal clock is monotone non-decreasing in intensity: memory-
//     bound work tolerates a slow, low-voltage clock; compute-bound
//     work pays π0 for longer and races.
//   - Race-to-idle vs pace-to-fill: for a fixed work budget and
//     deadline, either finish at full clock and idle, or stretch the
//     work across the deadline at a slower point. The closed-form
//     crossover (Crossover) gives the π0 above which racing wins; a
//     simulated powermon measurement of the race power profile
//     validates the closed form.
//   - Heterogeneous dispatch: an eq. 10 greenup/speedup incumbent scan
//     (the cluster router's rules) picks a platform-and-frequency per
//     kernel from a CPU/GPU/multi-SM candidate set.
//
// A study is deterministic: all simulated noise derives from
// (Config.Seed, machine index), cells evaluate in a fixed order, and
// the JSON form is byte-identical at any worker count (the golden test
// pins this).
package dvfs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// raceStream tags the powermon noise streams derived per machine.
const raceStream uint64 = 0x52414345 // "RACE"

// The sweeps' fixed shape.
const (
	// sweepWork is the per-kernel flop count of the optimal-frequency
	// and dispatch sweeps.
	sweepWork = 1e9
	// loIntensity and hiIntensity bound the intensity grid in
	// flop/byte.
	loIntensity, hiIntensity = 1.0 / 16, 64
)

// Config controls one DVFS study of every machine in the DVFS catalog.
// Zero fields take defaults.
type Config struct {
	// Seed roots the powermon measurement noise (default 11).
	Seed int64
	// Fast shrinks the grid and the race work budget for test runs.
	Fast bool
	// Workers bounds how many machines are studied concurrently; < 1
	// means one per CPU. The output is byte-identical at any value.
	Workers int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// points is the intensity grid size: 25, or 13 when Fast.
func (c Config) points() int {
	if c.Fast {
		return 13
	}
	return 25
}

// raceWork is the work budget of the race-to-idle scenario, sized so
// the simulated powermon trace has enough samples: 100e9 flops, or
// 10e9 when Fast.
func (c Config) raceWork() float64 {
	if c.Fast {
		return 10e9
	}
	return 100e9
}

// Study is the full report over every scenario.
type Study struct {
	// Seed echoes the run's root seed.
	Seed int64 `json:"seed"`
	// Work is the per-kernel flop count of the sweeps.
	Work float64 `json:"work"`
	// RaceWork is the race-to-idle work budget.
	RaceWork float64 `json:"race_work"`
	// Intensities is the sweep grid in flop/byte.
	Intensities []float64 `json:"intensities"`
	// OptFreq holds the optimal-frequency curves, machine-major in
	// catalog key order, double precision before single.
	OptFreq []OptFreqCurve `json:"opt_freq"`
	// RaceIdle holds the race-vs-pace cases, machine-major in catalog
	// key order, deep-idle before shallow-idle (double precision,
	// compute-bound kernel).
	RaceIdle []RaceIdleCase `json:"race_idle"`
	// Dispatch is the heterogeneous dispatch table over the fixed
	// default platform set.
	Dispatch DispatchTable `json:"dispatch"`
}

// cellResult is one machine's share of the study.
type cellResult struct {
	double, single OptFreqCurve
	races          []RaceIdleCase
}

// Run evaluates every scenario. The result is a pure function of cfg
// minus Workers.
func Run(ctx context.Context, cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()
	keys := machine.DVFSCatalogKeys()
	grid := core.LogGrid(loIntensity, hiIntensity, cfg.points())
	results, err := parallel.Map(ctx, len(keys), cfg.Workers, func(ctx context.Context, i int) (cellResult, error) {
		key := keys[i]
		m, _ := machine.Find(key)
		var res cellResult
		res.double = optFreqCurve(m, key, machine.Double, sweepWork, grid)
		res.single = optFreqCurve(m, key, machine.Single, sweepWork, grid)
		races, err := raceIdleCases(m, key, cfg, stats.DeriveSeed(cfg.Seed, raceStream, uint64(i)))
		if err != nil {
			return cellResult{}, fmt.Errorf("dvfs: %s: %v", key, err)
		}
		res.races = races
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	st := &Study{
		Seed:        cfg.Seed,
		Work:        sweepWork,
		RaceWork:    cfg.raceWork(),
		Intensities: grid,
	}
	for _, r := range results {
		st.OptFreq = append(st.OptFreq, r.double, r.single)
		st.RaceIdle = append(st.RaceIdle, r.races...)
	}
	disp, err := dispatchTable(grid, sweepWork)
	if err != nil {
		return nil, err
	}
	st.Dispatch = disp
	return st, nil
}

// ToJSON renders the study as deterministic, indented JSON — the
// artifact the golden test pins and the dvfs-optfreq experiment
// compares across worker counts.
func (s *Study) ToJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Render formats the study as fixed-width text tables.
func (s *Study) Render() string {
	var sb strings.Builder
	sb.WriteString("optimal frequency per intensity (energy-minimal operating point):\n")
	fmt.Fprintf(&sb, "%-12s %-6s %12s %10s %12s %10s %9s\n",
		"machine", "prec", "I lo", "s*(lo)", "I hi", "s*(hi)", "monotone")
	for i := range s.OptFreq {
		c := &s.OptFreq[i]
		lo, hi := c.Points[0], c.Points[len(c.Points)-1]
		fmt.Fprintf(&sb, "%-12s %-6s %12.4f %10s %12.4f %10s %9v\n",
			c.Machine, c.Precision, lo.Intensity, lo.Point, hi.Intensity, hi.Point, c.Monotone)
	}
	sb.WriteString("\nrace-to-idle vs pace-to-fill (double precision, compute-bound):\n")
	fmt.Fprintf(&sb, "%-12s %-13s %8s %12s %10s %12s %12s %10s %10s\n",
		"machine", "idle state", "pi0 W", "crossover W", "race wins", "race J", "best pace J", "pace pt", "meas err")
	for i := range s.RaceIdle {
		r := &s.RaceIdle[i]
		fmt.Fprintf(&sb, "%-12s %-13s %8.1f %12.1f %10v %12.1f %12.1f %10s %9.2f%%\n",
			r.Machine, r.Scenario, r.Pi0W, r.CrossoverW, r.RaceWins, r.RaceEnergyJ, r.BestPaceEnergyJ,
			r.BestPacePoint, 100*r.MeasuredRelErr)
	}
	sb.WriteString("\nheterogeneous dispatch (eq. 10 incumbent scan, baseline " + s.Dispatch.Baseline + "):\n")
	fmt.Fprintf(&sb, "%-12s %-18s %10s %10s %-20s\n", "I", "platform", "greenup", "speedup", "class")
	for i := range s.Dispatch.Choices {
		c := &s.Dispatch.Choices[i]
		fmt.Fprintf(&sb, "%-12.4f %-18s %10.2f %10.2f %-20s\n",
			c.Intensity, c.Platform, c.Greenup, c.Speedup, c.Class)
	}
	return sb.String()
}

// MarkdownTable renders the dispatch choices as a GitHub-flavoured
// markdown table (embedded in EXPERIMENTS.md).
func (s *Study) MarkdownTable() string {
	var sb strings.Builder
	sb.WriteString("| intensity | platform | greenup | speedup | class |\n")
	sb.WriteString("|---|---|---|---|---|\n")
	for i := range s.Dispatch.Choices {
		c := &s.Dispatch.Choices[i]
		fmt.Fprintf(&sb, "| %.4f | %s | %.2f | %.2f | %s |\n",
			c.Intensity, c.Platform, c.Greenup, c.Speedup, c.Class)
	}
	return sb.String()
}
