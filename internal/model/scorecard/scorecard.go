// Package scorecard quantifies where each registered EnergyModel is
// accurate. For every (machine, precision) pair it fits the blackbox
// model on one simulated measurement campaign, then scores both the
// analytic and the blackbox model against a second, held-out campaign
// on a wider intensity grid: per-quantity relative-error tables, full
// error CDFs, and the contiguous intensity regions where a model's
// error exceeds a breakdown threshold (the per-machine self-critique
// of arXiv:1505.06539, applied to our own models). An accuracy-based
// selector picks the model with the lower median energy error per
// pair — the auto-selection rule documented in docs/MODELS.md.
//
// A scorecard is deterministic: all simulator noise comes from streams
// derived off (Config.Seed, cell index), cells are scored in a fixed
// order, and the JSON form is byte-identical at any worker count (the
// golden test pins this).
package scorecard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Derivation stream tags keeping the fit campaign and the held-out
// scoring campaign on disjoint noise streams.
const (
	fitStream  uint64 = 0x53464954 // "SFIT"
	evalStream uint64 = 0x5345564c // "SEVL"
)

// Quantity names, in report order.
var quantityNames = []string{"time", "energy", "power"}

// The held-out scoring grid and the breakdown threshold.
const (
	// evalLoIntensity and evalHiIntensity bound the held-out grid in
	// flop/byte: wider than the training grid, so the scorecard also
	// probes extrapolation.
	evalLoIntensity, evalHiIntensity = 0.125, 128
	// evalWork is the per-point flop count of the held-out grid.
	evalWork = 1e9
	// threshold is the relative error above which a grid point counts
	// toward a breakdown region.
	threshold = 0.05
)

// Config controls one scorecard run. Zero fields take defaults.
type Config struct {
	// Machines are the catalog keys to score (default: whole catalog,
	// sorted).
	Machines []string
	// FitPoints and FitReps size the blackbox training campaign
	// (defaults 9 and 8; see model.FitConfig).
	FitPoints, FitReps int
	// EvalPoints is the held-out grid size (default 17).
	EvalPoints int
	// EvalReps is the measurement repetitions per held-out point
	// (default 5).
	EvalReps int
	// Seed roots every derived noise stream (default 7).
	Seed int64
	// Workers bounds how many (machine, precision) cells are scored
	// concurrently; < 1 means one per CPU. The output is byte-identical
	// at any value.
	Workers int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if len(c.Machines) == 0 {
		cat := machine.Catalog()
		for key := range cat {
			c.Machines = append(c.Machines, key)
		}
		sort.Strings(c.Machines)
	}
	if c.FitPoints == 0 {
		c.FitPoints = 9
	}
	if c.FitReps == 0 {
		c.FitReps = 8
	}
	if c.EvalPoints == 0 {
		c.EvalPoints = 17
	}
	if c.EvalReps == 0 {
		c.EvalReps = 5
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// ErrorStats summarises one model's relative errors for one quantity
// on one (machine, precision) pair.
type ErrorStats struct {
	// Median is the median per-point relative error.
	Median float64 `json:"median"`
	// P90 is the 90th-percentile relative error.
	P90 float64 `json:"p90"`
	// Max is the worst relative error.
	Max float64 `json:"max"`
	// CDF is every per-point relative error, sorted ascending: point
	// i is the empirical quantile at (i+1)/len(CDF).
	CDF []float64 `json:"cdf"`
}

// Quantity is one predicted quantity's head-to-head comparison.
type Quantity struct {
	// Name is "time", "energy" or "power".
	Name string `json:"name"`
	// Analytic summarises the closed-form model's errors.
	Analytic ErrorStats `json:"analytic"`
	// Blackbox summarises the fitted model's errors.
	Blackbox ErrorStats `json:"blackbox"`
	// Winner names the model with the lower median error (ties go to
	// the analytic model).
	Winner string `json:"winner"`
}

// Region is a contiguous intensity range where one model's relative
// error exceeds the breakdown threshold.
type Region struct {
	// Model names whose predictions break down here.
	Model string `json:"model"`
	// Quantity is the predicted quantity that breaks down.
	Quantity string `json:"quantity"`
	// LoIntensity is the region's lowest breaching grid intensity
	// (inclusive, flop/byte).
	LoIntensity float64 `json:"lo_intensity"`
	// HiIntensity is the highest breaching grid intensity (inclusive).
	HiIntensity float64 `json:"hi_intensity"`
	// WorstRelErr is the region's maximum relative error.
	WorstRelErr float64 `json:"worst_rel_err"`
}

// Card is one (machine, precision) pair's scorecard.
type Card struct {
	// Machine is the scored catalog key.
	Machine string `json:"machine"`
	// Precision is the scored precision name.
	Precision string `json:"precision"`
	// FitObs is the number of observations the blackbox fit used.
	FitObs int `json:"fit_obs"`
	// TimeR2 is the blackbox time fit's coefficient of determination.
	TimeR2 float64 `json:"time_r2"`
	// EnergyR2 is the blackbox energy fit's R².
	EnergyR2 float64 `json:"energy_r2"`
	// Quantities hold the per-quantity comparisons (time, energy,
	// power — fixed order).
	Quantities []Quantity `json:"quantities"`
	// Breakdown lists where either model exceeds the threshold.
	Breakdown []Region `json:"breakdown,omitempty"`
	// Selected is the auto-selected model for this pair: the lower
	// median energy error (ties go to analytic).
	Selected string `json:"selected"`
}

// Quantity returns the named quantity comparison, or a zero value.
func (c *Card) Quantity(name string) Quantity {
	for _, q := range c.Quantities {
		if q.Name == name {
			return q
		}
	}
	return Quantity{}
}

// Scorecard is the full report over every scored pair.
type Scorecard struct {
	// Seed echoes the run's root seed.
	Seed int64 `json:"seed"`
	// Threshold echoes the breakdown threshold.
	Threshold float64 `json:"threshold"`
	// EvalWork is the per-point flop count of the held-out grid.
	EvalWork float64 `json:"eval_work"`
	// EvalReps is the measurement repetitions per held-out point.
	EvalReps int `json:"eval_reps"`
	// Intensities is the held-out grid in flop/byte.
	Intensities []float64 `json:"intensities"`
	// Cards are the per-(machine, precision) results, machine-major in
	// config order, double precision before single within a machine.
	Cards []Card `json:"cards"`
}

// cell identifies one unit of scoring work.
type cell struct {
	machineKey string
	prec       machine.Precision
}

// Run scores every (machine, precision) pair cfg selects. The result
// is a pure function of cfg minus Workers.
func Run(ctx context.Context, cfg Config) (*Scorecard, error) {
	cfg = cfg.withDefaults()
	if cfg.EvalPoints < 2 {
		return nil, fmt.Errorf("scorecard: eval_points must be >= 2, got %d", cfg.EvalPoints)
	}
	cat := machine.Catalog()
	var cells []cell
	for _, key := range cfg.Machines {
		if _, ok := cat[key]; !ok {
			return nil, fmt.Errorf("scorecard: unknown machine %q", key)
		}
		cells = append(cells, cell{key, machine.Double}, cell{key, machine.Single})
	}
	grid := core.LogGrid(evalLoIntensity, evalHiIntensity, cfg.EvalPoints)
	cards, err := parallel.Map(ctx, len(cells), cfg.Workers, func(ctx context.Context, i int) (Card, error) {
		return scoreCell(cfg, cells[i], uint64(i), grid)
	})
	if err != nil {
		return nil, err
	}
	return &Scorecard{
		Seed:        cfg.Seed,
		Threshold:   threshold,
		EvalWork:    evalWork,
		EvalReps:    cfg.EvalReps,
		Intensities: grid,
		Cards:       cards,
	}, nil
}

// scoreCell fits, measures and scores one (machine, precision) pair.
// All noise derives from (cfg.Seed, idx), so the card is independent
// of scheduling.
func scoreCell(cfg Config, cl cell, idx uint64, grid []float64) (Card, error) {
	bb, err := model.Fit(model.FitConfig{
		Machine:   cl.machineKey,
		Precision: cl.prec.String(),
		Points:    cfg.FitPoints,
		Reps:      cfg.FitReps,
		Seed:      stats.DeriveSeed(cfg.Seed, fitStream, idx),
		Workers:   1,
	})
	if err != nil {
		return Card{}, err
	}
	m := machine.Catalog()[cl.machineKey]
	p := core.FromMachine(m, cl.prec)
	an := model.NewAnalytic(p)

	// Held-out measurements: EvalReps runs per grid point on a fresh
	// engine seeded off the eval stream, aggregated like the
	// validation harness does.
	eng, err := sim.New(m, sim.DefaultConfig(stats.DeriveSeed(cfg.Seed, evalStream, idx)))
	if err != nil {
		return Card{}, err
	}
	n := len(grid)
	w := make([]float64, n)
	q := make([]float64, n)
	for j := range w {
		w[j] = evalWork
	}
	core.QAtInto(q, w, grid)
	measT := make([]float64, n)
	measE := make([]float64, n)
	measP := make([]float64, n)
	specs := make([]sim.KernelSpec, cfg.EvalReps)
	runs := make([]sim.Run, cfg.EvalReps)
	for j := 0; j < n; j++ {
		spec := sim.KernelSpec{W: w[j], Q: q[j], Precision: cl.prec, Tuning: eng.OptimalTuning()}
		for r := range specs {
			specs[r] = spec
		}
		if err := eng.RunBatch(nil, specs, runs); err != nil {
			return Card{}, err
		}
		var sumT, sumE float64
		for r := range runs {
			sumT += float64(runs[r].Duration)
			sumE += float64(runs[r].Energy)
		}
		reps := float64(cfg.EvalReps)
		measT[j] = sumT / reps
		measE[j] = sumE / reps
		measP[j] = sumE / sumT
	}

	// Predictions via the batch interface: the capped columns, because
	// the measured runs include any throttling the machine enforces.
	var ab, bbb core.Batch
	an.EvalInto(&ab, w, q)
	bb.EvalInto(&bbb, w, q)
	predict := func(b *core.Batch, quantity string) []float64 {
		switch quantity {
		case "time":
			return b.CappedTime
		case "energy":
			return b.CappedEnergy
		default:
			return b.CappedPower
		}
	}
	measure := func(quantity string) []float64 {
		switch quantity {
		case "time":
			return measT
		case "energy":
			return measE
		default:
			return measP
		}
	}

	card := Card{
		Machine:   cl.machineKey,
		Precision: cl.prec.String(),
		FitObs:    bb.Obs,
		TimeR2:    bb.TimeR2,
		EnergyR2:  bb.EnergyR2,
	}
	for _, name := range quantityNames {
		meas := measure(name)
		anErr := relErrs(predict(&ab, name), meas)
		bbErr := relErrs(predict(&bbb, name), meas)
		qt := Quantity{
			Name:     name,
			Analytic: summarise(anErr),
			Blackbox: summarise(bbErr),
			Winner:   model.AnalyticName,
		}
		if qt.Blackbox.Median < qt.Analytic.Median {
			qt.Winner = model.BlackboxName
		}
		card.Quantities = append(card.Quantities, qt)
		card.Breakdown = append(card.Breakdown, regions(model.AnalyticName, name, grid, anErr)...)
		card.Breakdown = append(card.Breakdown, regions(model.BlackboxName, name, grid, bbErr)...)
	}
	card.Selected = card.Quantity("energy").Winner
	return card, nil
}

// relErrs returns the per-point relative errors |pred/meas - 1|.
func relErrs(pred, meas []float64) []float64 {
	out := make([]float64, len(pred))
	for i := range pred {
		out[i] = stats.RelErr(pred[i], meas[i])
	}
	return out
}

// summarise computes the percentile summary and sorted CDF of errs.
func summarise(errs []float64) ErrorStats {
	cdf := append([]float64(nil), errs...)
	sort.Float64s(cdf)
	med, _ := stats.Percentile(cdf, 50)
	p90, _ := stats.Percentile(cdf, 90)
	return ErrorStats{Median: med, P90: p90, Max: cdf[len(cdf)-1], CDF: cdf}
}

// regions finds the contiguous grid runs where errs exceeds threshold.
func regions(modelName, quantity string, grid, errs []float64) []Region {
	var out []Region
	for i := 0; i < len(grid); {
		if errs[i] <= threshold {
			i++
			continue
		}
		j := i
		worst := errs[i]
		for j+1 < len(grid) && errs[j+1] > threshold {
			j++
			worst = math.Max(worst, errs[j])
		}
		out = append(out, Region{
			Model:       modelName,
			Quantity:    quantity,
			LoIntensity: grid[i],
			HiIntensity: grid[j],
			WorstRelErr: worst,
		})
		i = j + 1
	}
	return out
}

// ToJSON renders the scorecard as deterministic, indented JSON — the
// artifact CI uploads and the golden test pins.
func (s *Scorecard) ToJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Render formats the per-pair summary as a fixed-width text table:
// median/max relative error per quantity for both models, the
// per-quantity winner and the auto-selected model.
func (s *Scorecard) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-6s %-7s %22s %22s %-9s\n",
		"machine", "prec", "qty", "analytic med/max", "blackbox med/max", "winner")
	for i := range s.Cards {
		c := &s.Cards[i]
		for _, q := range c.Quantities {
			fmt.Fprintf(&sb, "%-10s %-6s %-7s %10.2f%% %9.2f%% %10.2f%% %9.2f%% %-9s\n",
				c.Machine, c.Precision, q.Name,
				100*q.Analytic.Median, 100*q.Analytic.Max,
				100*q.Blackbox.Median, 100*q.Blackbox.Max,
				q.Winner)
		}
		fmt.Fprintf(&sb, "%-10s %-6s selected=%s (breakdown regions: %d)\n",
			c.Machine, c.Precision, c.Selected, len(c.Breakdown))
	}
	return sb.String()
}

// CDFChart builds the error-CDF figure for one card and quantity: the
// sorted relative errors of both models against cumulative fraction.
func CDFChart(c *Card, quantity string) *chart.Chart {
	q := c.Quantity(quantity)
	frac := func(n int) []float64 {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(i+1) / float64(n)
		}
		return ys
	}
	return &chart.Chart{
		Title:  fmt.Sprintf("%s error CDF — %s (%s)", quantity, c.Machine, c.Precision),
		XLabel: "relative error",
		YLabel: "fraction of points",
		Series: []chart.Series{
			{Name: model.AnalyticName, X: q.Analytic.CDF, Y: frac(len(q.Analytic.CDF)), Line: true, Marker: 'a'},
			{Name: model.BlackboxName, X: q.Blackbox.CDF, Y: frac(len(q.Blackbox.CDF)), Line: true, Marker: 'b'},
		},
	}
}
