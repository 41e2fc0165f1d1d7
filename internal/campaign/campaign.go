// Package campaign orchestrates the paper's complete measurement
// workflow as a reusable pipeline: for each platform, auto-tune the
// microbenchmark, sweep intensity in both precisions, measure time and
// energy (optionally through the sampled power monitor), fit the
// eq. (9) energy coefficients, and emit a fitted machine description —
// the artifact a performance tuner would feed back into the model to
// draw Fig. 4-style curves for their own system.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/powermon"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strictjson"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config describes a measurement campaign. The zero value is not
// usable; Default returns a sensible one. Configs round-trip through
// JSON for use by cmd/campaign.
type Config struct {
	// Machines are catalog keys (e.g. "gtx580"); each is swept
	// independently.
	Machines []string `json:"machines"`
	// LoIntensity is the sweep grid's lowest flop/byte value.
	LoIntensity float64 `json:"lo_intensity"`
	// HiIntensity is the grid's highest value (the double-precision
	// sweep is capped at 16, as in the paper).
	HiIntensity float64 `json:"hi_intensity"`
	// Points is the number of grid points per precision.
	Points int `json:"points"`
	// Reps is runs per intensity point.
	Reps int `json:"reps"`
	// VolumeBytes is the DRAM traffic per run.
	VolumeBytes float64 `json:"volume_bytes"`
	// UsePowerMon routes energy measurement through the sampled
	// multi-channel monitor at 1024 Hz.
	UsePowerMon bool `json:"use_powermon"`
	// Seed drives all noise.
	Seed int64 `json:"seed"`
	// Model, when set, names an EnergyModel ("analytic" or "blackbox")
	// to check against the campaign's own measured sweep points; the
	// per-machine residuals land in MachineResult.ModelCheck. Empty
	// skips the check and keeps the campaign artifact byte-identical
	// to the pre-interface output.
	Model string `json:"model,omitempty"`
}

// Default returns the standard campaign over both measured platforms.
func Default() Config {
	return Config{
		Machines:    []string{"gtx580", "i7-950"},
		LoIntensity: 0.25,
		HiIntensity: 64,
		Points:      11,
		Reps:        50,
		VolumeBytes: 1 << 28,
		Seed:        42,
	}
}

// Validate reports configuration problems. It guards every numeric
// field against the adversarial inputs the fuzz harness feeds through
// ParseConfig — NaN/Inf bounds, inverted ranges, and grid sizes large
// enough to exhaust memory all fail here, before any allocation.
func (c Config) Validate() error {
	if len(c.Machines) == 0 {
		return errors.New("campaign: no machines")
	}
	catalog := machine.Catalog()
	for _, key := range c.Machines {
		if _, ok := catalog[key]; !ok {
			return fmt.Errorf("campaign: unknown machine %q", key)
		}
	}
	for _, v := range []float64{c.LoIntensity, c.HiIntensity, c.VolumeBytes} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("campaign: non-finite numeric field")
		}
	}
	if c.LoIntensity <= 0 || c.HiIntensity <= c.LoIntensity {
		return errors.New("campaign: bad intensity range")
	}
	if c.Points < 4 {
		return errors.New("campaign: need at least 4 intensity points")
	}
	if c.Points > 1<<16 {
		return fmt.Errorf("campaign: %d intensity points exceed the %d limit", c.Points, 1<<16)
	}
	if c.Reps < 1 {
		return errors.New("campaign: reps must be >= 1")
	}
	if c.Reps > 1<<20 {
		return fmt.Errorf("campaign: %d reps exceed the %d limit", c.Reps, 1<<20)
	}
	if c.VolumeBytes <= 0 {
		return errors.New("campaign: volume must be positive")
	}
	if !model.Known(c.Model) {
		return fmt.Errorf("campaign: unknown model %q (registered: %s)", c.Model, strings.Join(model.Names(), ", "))
	}
	return nil
}

// ParseConfig reads a JSON campaign configuration strictly: unknown
// fields and trailing data are rejected, as POST /v1/campaign does.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := strictjson.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("campaign: %v", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MachineResult is the outcome of one platform's campaign.
type MachineResult struct {
	// Key and Name identify the platform.
	Key, Name string
	// Tuning is the auto-tuned launch configuration.
	Tuning sim.Tuning
	// TuningQuality is the tuning's fraction of the best achievable.
	TuningQuality float64
	// Coefficients is the eq. (9) fit.
	Coefficients microbench.Coefficients
	// GroundTruth holds the platform's planted values for comparison:
	// [εs, εd, εmem (J)], π0 (W).
	TruthEpsS, TruthEpsD, TruthEpsMem, TruthPi0 float64
	// WorstRelErr is the largest relative error of the four fitted
	// coefficients against ground truth.
	WorstRelErr float64
	// Fitted is a machine description built from the fit — the
	// campaign's primary artifact.
	Fitted *machine.Machine
	// Points is the number of observations behind the fit.
	Points int
	// ModelCheck holds the residuals of the configured EnergyModel
	// against this machine's measured sweep points; nil unless
	// Config.Model is set (so default campaign artifacts are
	// byte-identical to the pre-interface output).
	ModelCheck *ModelCheck `json:",omitempty"`
}

// ModelCheck summarises how one EnergyModel's predictions compare to
// the campaign's own measured sweep observations (capped predictions
// against throttle-inclusive measurements).
type ModelCheck struct {
	// Model names the checked EnergyModel.
	Model string
	// MedianRelErrTime and MaxRelErrTime summarise the per-observation
	// time relative errors |predicted/measured − 1|.
	MedianRelErrTime, MaxRelErrTime float64
	// MedianRelErrEnergy and MaxRelErrEnergy summarise the energy
	// relative errors the same way.
	MedianRelErrEnergy, MaxRelErrEnergy float64
	// Points is the number of observations checked.
	Points int
}

// Result is a complete campaign outcome.
type Result struct {
	// Config is the executed configuration.
	Config Config
	// Machines holds one result per swept platform.
	Machines []MachineResult
}

// ToJSON serialises the complete campaign outcome. For a fixed Config
// the bytes are identical at every worker count, which is what the
// golden determinism tests pin.
func (r *Result) ToJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Run executes the campaign with the default worker count (one worker
// per CPU). Because every task draws noise from a stream derived from
// its identity rather than from execution order, the result is
// byte-identical to RunParallel at any other worker count.
func Run(cfg Config) (*Result, error) {
	return RunParallel(context.Background(), cfg, 0)
}

// RunParallel executes the campaign on a bounded worker pool: machines
// sweep concurrently, and within each machine the (intensity, rep) grid
// of both precisions fans out across the same worker budget. workers
// follows parallel.Workers semantics (< 1 means GOMAXPROCS; 1
// reproduces the sequential run exactly). The context cancels the
// campaign between kernel executions.
//
// Determinism guarantee: for a fixed Config, the marshalled Result is
// byte-identical at every worker count. Per-machine engines are seeded
// from Config.Seed and the machine index, and every repetition derives
// its own noise stream from (engine seed, precision, grid index, rep) —
// see stats.DeriveSeed — so neither scheduling nor worker count can
// reach the artifact.
//
// When ctx carries a trace.Tracer (see internal/trace), the run records
// an execution trace: a "campaign" root span, one "campaign.machine"
// span per platform, "campaign.autotune" / "microbench.sweep" /
// "campaign.fit" phase spans, and per-repetition "sweep.rep" spans with
// "sim.run" children. Tracing observes only the clock; it cannot reach
// the noise streams, so traced output stays byte-identical to untraced
// output (pinned end to end by TestCampaignBinaryTrace).
func RunParallel(ctx context.Context, cfg Config, workers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "campaign")
	span.Tag("machines", len(cfg.Machines)).
		Tag("points", cfg.Points).
		Tag("reps", cfg.Reps).
		Tag("seed", cfg.Seed)
	defer span.End()
	workers = parallel.Workers(workers)
	mrs, err := parallel.Map(ctx, len(cfg.Machines), workers,
		func(ctx context.Context, mi int) (MachineResult, error) {
			return runMachine(ctx, cfg, mi, workers)
		})
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Machines: mrs}, nil
}

// runMachine executes one platform's tune→sweep→fit pipeline. The
// auto-tune phase runs on the engine's own sequential stream (its probe
// count is data-dependent, so it stays serial); the sweeps fan out.
func runMachine(ctx context.Context, cfg Config, mi int, workers int) (MachineResult, error) {
	key := cfg.Machines[mi]
	ctx, span := trace.Start(ctx, "campaign.machine")
	span.Tag("machine", key)
	defer span.End()
	m := machine.Catalog()[key]
	eng, err := sim.New(m, sim.DefaultConfig(cfg.Seed+int64(mi)*1001))
	if err != nil {
		return MachineResult{}, err
	}
	_, tuneSpan := trace.Start(ctx, "campaign.autotune")
	tuning, quality, err := microbench.AutoTune(eng, machine.Single)
	tuneSpan.End()
	if err != nil {
		return MachineResult{}, err
	}
	var mon *powermon.Monitor
	if cfg.UsePowerMon {
		chans := powermon.GPUChannels()
		if strings.Contains(strings.ToLower(m.Name), "intel") {
			chans = powermon.CPUChannels()
		}
		mon, err = powermon.New(chans, powermon.Config{Seed: cfg.Seed + 7 + int64(mi)*1001, RateHz: 1024})
		if err != nil {
			return MachineResult{}, err
		}
	}
	var pts []microbench.Point
	for _, prec := range []machine.Precision{machine.Single, machine.Double} {
		if err := ctx.Err(); err != nil {
			return MachineResult{}, err
		}
		hi := cfg.HiIntensity
		if prec == machine.Double {
			// Match the paper: the double sweep tops out earlier.
			if hi > 16 {
				hi = 16
			}
		}
		p, err := microbench.Sweep(ctx, eng, prec, microbench.SweepConfig{
			Intensities: core.LogGrid(cfg.LoIntensity, hi, cfg.Points),
			VolumeBytes: cfg.VolumeBytes,
			Reps:        cfg.Reps,
			Tuning:      tuning,
			Monitor:     mon,
			KeepReps:    true,
			Workers:     workers,
		})
		if err != nil {
			return MachineResult{}, err
		}
		pts = append(pts, p...)
	}
	_, fitSpan := trace.Start(ctx, "campaign.fit")
	fitSpan.Tag("observations", len(pts))
	coef, _, err := microbench.FitEq9(pts)
	fitSpan.End()
	if err != nil {
		return MachineResult{}, err
	}
	mr := MachineResult{
		Key:           key,
		Name:          m.Name,
		Tuning:        tuning,
		TuningQuality: quality,
		Coefficients:  *coef,
		TruthEpsS:     float64(m.SP.EnergyPerFlop),
		TruthEpsD:     float64(m.DP.EnergyPerFlop),
		TruthEpsMem:   float64(m.EnergyPerByte),
		TruthPi0:      float64(m.ConstantPower),
		Points:        len(pts),
	}
	for _, pair := range [][2]float64{
		{coef.EpsSingle, mr.TruthEpsS},
		{coef.EpsDouble, mr.TruthEpsD},
		{coef.EpsMem, mr.TruthEpsMem},
		{coef.Pi0, mr.TruthPi0},
	} {
		if re := stats.RelErr(pair[0], pair[1]); re > mr.WorstRelErr {
			mr.WorstRelErr = re
		}
	}
	mr.Fitted = fittedMachine(m, coef)
	if cfg.Model != "" {
		mc, err := checkModel(cfg.Model, key, pts)
		if err != nil {
			return MachineResult{}, err
		}
		mr.ModelCheck = mc
	}
	return mr, nil
}

// checkModel scores the named EnergyModel's capped predictions against
// the campaign's measured sweep observations. Each precision resolves
// its own model instance (a blackbox fit is per precision); the
// summary pools both precisions' residuals.
func checkModel(name, machineKey string, pts []microbench.Point) (*ModelCheck, error) {
	models := map[machine.Precision]model.EnergyModel{}
	for _, prec := range []machine.Precision{machine.Single, machine.Double} {
		em, err := model.For(name, machineKey, prec)
		if err != nil {
			return nil, err
		}
		models[prec] = em
	}
	timeErr := make([]float64, 0, len(pts))
	energyErr := make([]float64, 0, len(pts))
	for _, pt := range pts {
		em := models[pt.Precision]
		k := core.Kernel{W: pt.W, Q: pt.Q}
		timeErr = append(timeErr, stats.RelErr(em.CappedTime(k), float64(pt.Time)))
		energyErr = append(energyErr, stats.RelErr(em.CappedEnergy(k), float64(pt.Energy)))
	}
	medT, err := stats.Median(timeErr)
	if err != nil {
		return nil, err
	}
	medE, err := stats.Median(energyErr)
	if err != nil {
		return nil, err
	}
	mc := &ModelCheck{Model: name, MedianRelErrTime: medT, MedianRelErrEnergy: medE, Points: len(pts)}
	for i := range timeErr {
		mc.MaxRelErrTime = math.Max(mc.MaxRelErrTime, timeErr[i])
		mc.MaxRelErrEnergy = math.Max(mc.MaxRelErrEnergy, energyErr[i])
	}
	return mc, nil
}

// fittedMachine builds a machine description whose energy parameters
// come from the fit (time parameters keep the vendor peaks, exactly as
// the paper instantiates eq. 3 from specs and eq. 5 from the fit).
func fittedMachine(base *machine.Machine, coef *microbench.Coefficients) *machine.Machine {
	f := base.Clone()
	f.Name = base.Name + " (fitted)"
	f.SP.EnergyPerFlop = units.Joules(coef.EpsSingle)
	f.DP.EnergyPerFlop = units.Joules(coef.EpsDouble)
	f.EnergyPerByte = units.Joules(coef.EpsMem)
	f.ConstantPower = units.Watts(coef.Pi0)
	return f
}

// Render formats the campaign outcome for terminal output.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign: %d machine(s), %d points per precision, %d reps, seed %d\n",
		len(r.Machines), r.Config.Points, r.Config.Reps, r.Config.Seed)
	for _, mr := range r.Machines {
		fmt.Fprintf(&sb, "\n%s (tuning quality %.3f, %d observations):\n", mr.Name, mr.TuningQuality, mr.Points)
		fmt.Fprintf(&sb, "  %-6s %18s %18s %10s\n", "coeff", "fitted", "truth", "rel err")
		rows := []struct {
			name          string
			fitted, truth float64
			scale         float64
			unit          string
		}{
			{"εs", mr.Coefficients.EpsSingle, mr.TruthEpsS, 1e12, "pJ/flop"},
			{"εd", mr.Coefficients.EpsDouble, mr.TruthEpsD, 1e12, "pJ/flop"},
			{"εmem", mr.Coefficients.EpsMem, mr.TruthEpsMem, 1e12, "pJ/B"},
			{"π0", mr.Coefficients.Pi0, mr.TruthPi0, 1, "W"},
		}
		for _, row := range rows {
			fmt.Fprintf(&sb, "  %-6s %18s %18s %9.2f%%\n",
				row.name,
				fmt.Sprintf("%.1f %s", row.fitted*row.scale, row.unit),
				fmt.Sprintf("%.1f %s", row.truth*row.scale, row.unit),
				stats.RelErr(row.fitted, row.truth)*100)
		}
		fmt.Fprintf(&sb, "  R² = %.6f, max p-value = %.3g\n", mr.Coefficients.R2, mr.Coefficients.MaxPValue)
		// Derived model quantities from the *fit* — what a user gets
		// without knowing the ground truth.
		p := core.FromMachine(mr.Fitted, machine.Double)
		fmt.Fprintf(&sb, "  fitted model (double): Bτ = %.2f, B̂ε(y=½) = %.2f flop/byte, race-to-halt = %v\n",
			p.BalanceTime(), p.HalfEfficiencyIntensity(), p.RaceToHaltEffective())
	}
	return sb.String()
}
