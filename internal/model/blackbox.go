package model

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stats"
)

// blackboxStream namespaces the per-volume engine seeds a fit derives
// from FitConfig.Seed (see stats.DeriveSeed).
const blackboxStream uint64 = 0x42424f58 // "BBOX"

// Blackbox is an EnergyModel fitted by least squares on simulated
// measurements, generalising the paper's eq. 9 regression from energy
// only to time and energy:
//
//	T̂(W, Q) = TauW·W + TauQ·Q + T0
//	Ê(W, Q) = EpsW·W + EpsQ·Q + P0·T̂(W, Q)
//
// Both fits run in per-flop space (rows are divided by W, exactly as
// eq. 9 divides by W) so every observation carries equal weight
// regardless of kernel size. The energy fit uses measured times as the
// T/W regressor — the paper's protocol — while prediction substitutes
// the fitted T̂, making the model self-contained.
//
// Unlike the analytic model the blackbox has no separate capped
// branch: its training data is whatever the simulated machine actually
// did, throttling included, so CappedTime/CappedEnergy/CappedPower
// return the plain predictions. This is a documented semantic
// difference (docs/MODELS.md): the blackbox predicts observed
// behaviour, the analytic model predicts the closed forms.
type Blackbox struct {
	// MachineKey names the fitted catalog machine.
	MachineKey string
	// Precision is the fitted precision.
	Precision machine.Precision
	// TauW, TauQ and T0 are the time coefficients (s/flop, s/byte, s).
	TauW, TauQ, T0 float64
	// EpsW, EpsQ and P0 are the energy coefficients (J/flop, J/byte, W).
	EpsW, EpsQ, P0 float64
	// TimeR2 and EnergyR2 are the fits' coefficients of determination.
	TimeR2, EnergyR2 float64
	// Obs is the number of per-repetition observations each fit used.
	Obs int
}

// Name returns "blackbox".
func (bb *Blackbox) Name() string { return BlackboxName }

// Time predicts wall-clock seconds from the fitted time plane.
func (bb *Blackbox) Time(k core.Kernel) float64 {
	return bb.TauW*k.W + bb.TauQ*k.Q + bb.T0
}

// Energy predicts joules from the fitted energy plane, substituting
// the fitted time for eq. 9's measured T/W regressor.
func (bb *Blackbox) Energy(k core.Kernel) float64 {
	t := bb.TauW*k.W + bb.TauQ*k.Q + bb.T0
	return bb.EpsW*k.W + bb.EpsQ*k.Q + bb.P0*t
}

// Power predicts average watts as Energy/Time.
func (bb *Blackbox) Power(k core.Kernel) float64 {
	t := bb.TauW*k.W + bb.TauQ*k.Q + bb.T0
	e := bb.EpsW*k.W + bb.EpsQ*k.Q + bb.P0*t
	return e / t
}

// CappedTime returns Time: throttling is endogenous to the fit.
func (bb *Blackbox) CappedTime(k core.Kernel) float64 { return bb.Time(k) }

// CappedEnergy returns Energy: throttling is endogenous to the fit.
func (bb *Blackbox) CappedEnergy(k core.Kernel) float64 { return bb.Energy(k) }

// CappedPower returns Power: throttling is endogenous to the fit.
func (bb *Blackbox) CappedPower(k core.Kernel) float64 { return bb.Power(k) }

// EvalInto fills all six batch columns with the same expressions the
// scalar methods evaluate, in the same association order, so the
// columns are bit-identical to element-wise scalar calls.
func (bb *Blackbox) EvalInto(b *core.Batch, w, q []float64) {
	n := len(w)
	if len(q) != n {
		panic(fmt.Sprintf("model: EvalInto column length mismatch: len(w)=%d len(q)=%d", n, len(q)))
	}
	b.Reserve(n)
	for i := 0; i < n; i++ {
		t := bb.TauW*w[i] + bb.TauQ*q[i] + bb.T0
		e := bb.EpsW*w[i] + bb.EpsQ*q[i] + bb.P0*t
		p := e / t
		b.Time[i] = t
		b.Energy[i] = e
		b.Power[i] = p
		b.CappedTime[i] = t
		b.CappedEnergy[i] = e
		b.CappedPower[i] = p
	}
}

// Fit runs the sweeps cfg describes and regresses the two planes. The
// returned model is a deterministic function of cfg: per-repetition
// noise comes from streams derived off (cfg.Seed, volume index), so the
// same config always yields bit-identical coefficients, at any Workers.
func Fit(cfg FitConfig) (*Blackbox, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, ok := machine.Catalog()[cfg.Machine]
	if !ok {
		return nil, fmt.Errorf("model: unknown machine %q", cfg.Machine)
	}
	prec, _ := machine.ParsePrecision(cfg.Precision) // Validate accepted it
	grid := core.LogGrid(cfg.LoIntensity, cfg.HiIntensity, cfg.Points)
	var points []microbench.Point
	for vi, vol := range cfg.Volumes {
		// One engine per volume, on its own derived seed, so the noise
		// draws of different volumes are independent streams.
		eng, err := sim.New(m, sim.DefaultConfig(stats.DeriveSeed(cfg.Seed, blackboxStream, uint64(vi))))
		if err != nil {
			return nil, fmt.Errorf("model: fit engine for %q: %w", cfg.Machine, err)
		}
		pts, err := microbench.Sweep(nil, eng, prec, microbench.SweepConfig{
			Intensities: grid,
			VolumeBytes: vol,
			Reps:        cfg.Reps,
			Tuning:      eng.OptimalTuning(),
			KeepReps:    true,
			Workers:     cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("model: fit sweep for %q volume %g: %w", cfg.Machine, vol, err)
		}
		points = append(points, pts...)
	}

	// Time plane, per flop: T/W = TauW + TauQ·(Q/W) + T0·(1/W). Two or
	// more volumes keep Q/W and 1/W from being collinear (within one
	// volume Q is held constant, so they would be).
	xt := make([][]float64, 0, len(points))
	yt := make([]float64, 0, len(points))
	// Energy plane, per flop: E/W = EpsW + EpsQ·(Q/W) + P0·(T/W), the
	// paper's eq. 9 with measured T as regressor (Δεd drops out: a fit
	// is per precision).
	xe := make([][]float64, 0, len(points))
	ye := make([]float64, 0, len(points))
	for _, pt := range points {
		xt = append(xt, []float64{1, pt.Q / pt.W, 1 / pt.W})
		yt = append(yt, float64(pt.Time)/pt.W)
		xe = append(xe, []float64{1, pt.Q / pt.W, float64(pt.Time) / pt.W})
		ye = append(ye, float64(pt.Energy)/pt.W)
	}
	tfit, err := regress.Fit(xt, yt)
	if err != nil {
		return nil, fmt.Errorf("model: time fit for %q: %w", cfg.Machine, err)
	}
	efit, err := regress.Fit(xe, ye)
	if err != nil {
		return nil, fmt.Errorf("model: energy fit for %q: %w", cfg.Machine, err)
	}
	return &Blackbox{
		MachineKey: cfg.Machine,
		Precision:  prec,
		TauW:       tfit.Coef[0],
		TauQ:       tfit.Coef[1],
		T0:         tfit.Coef[2],
		EpsW:       efit.Coef[0],
		EpsQ:       efit.Coef[1],
		P0:         efit.Coef[2],
		TimeR2:     tfit.R2,
		EnergyR2:   efit.R2,
		Obs:        len(points),
	}, nil
}
