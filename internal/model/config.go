package model

import (
	"fmt"

	"repro/internal/machine"
)

// FitConfig describes one blackbox fit: which (machine, precision)
// pair to fit and the size of the simulated measurement campaign to fit
// it on. Every campaign sweeps log-spaced intensities from 0.25 to 64
// flop/byte at two DRAM traffic volumes, 64 MiB and 256 MiB. Zero
// fields take defaults (see DefaultFitConfig); the zero Machine is
// invalid.
type FitConfig struct {
	// Machine is the catalog key to fit ("gtx580", ...).
	Machine string
	// Precision is "single" or "double" (default "double").
	Precision string
	// Points is the number of log-spaced grid intensities (default 9).
	Points int
	// Reps is the repetitions per (volume, intensity) cell; every
	// repetition is one regression observation (default 8).
	Reps int
	// Seed roots the derived noise streams (default 101). The same
	// (config, seed) always fits bit-identical coefficients.
	Seed int64
	// Workers bounds sweep concurrency (not part of the fit identity:
	// results are byte-identical at any worker count). < 1 means one
	// worker per CPU.
	Workers int
}

// The fit campaign: a 2-volume, 9-point, 8-rep sweep (144 observations
// per plane) by default, enough for R² > 0.99 on every catalog machine
// while staying fast enough to fit lazily per server request. The
// intensity bounds are in flop/byte.
const (
	fitLoIntensity   = 0.25
	fitHiIntensity   = 64
	defaultFitPoints = 9
	defaultFitReps   = 8
	defaultFitSeed   = 101
)

// fitVolumes are the per-run DRAM traffic sizes of every fit campaign,
// 64 MiB and 256 MiB. They must differ: within one volume Q is
// constant, which makes the time plane's Q/W and 1/W regressors
// collinear.
var fitVolumes = [...]float64{64 << 20, 256 << 20}

// DefaultFitConfig returns the fit configuration For uses when it fits
// a blackbox model lazily for one catalog machine and precision.
func DefaultFitConfig(machineKey string, prec machine.Precision) FitConfig {
	return FitConfig{Machine: machineKey, Precision: prec.String()}.withDefaults()
}

// withDefaults fills zero fields with the documented defaults.
func (c FitConfig) withDefaults() FitConfig {
	if c.Precision == "" {
		c.Precision = machine.Double.String()
	}
	if c.Points == 0 {
		c.Points = defaultFitPoints
	}
	if c.Reps == 0 {
		c.Reps = defaultFitReps
	}
	if c.Seed == 0 {
		c.Seed = defaultFitSeed
	}
	return c
}

// Fit-config bounds: syntactic sanity checks. The caps keep a hostile
// config from requesting an unbounded simulation campaign; Fit checks
// the machine against the catalog separately.
const (
	maxFitPoints = 1 << 12
	maxFitReps   = 1 << 12
)

// Validate reports whether the config describes a runnable fit. It is
// syntactic: the machine key's existence is checked by Fit, which has
// the catalog.
func (c FitConfig) Validate() error {
	if c.Machine == "" {
		return fmt.Errorf("model: fit config needs a machine")
	}
	if _, err := machine.ParsePrecision(c.Precision); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if c.Points < 2 || c.Points > maxFitPoints {
		return fmt.Errorf("model: points must be in [2, %d], got %d", maxFitPoints, c.Points)
	}
	if c.Reps < 1 || c.Reps > maxFitReps {
		return fmt.Errorf("model: reps must be in [1, %d], got %d", maxFitReps, c.Reps)
	}
	return nil
}
