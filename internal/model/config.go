package model

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// FitConfig describes one blackbox fit: which (machine, precision)
// pair to fit and the simulated measurement campaign to fit it on.
// Zero fields take defaults (see DefaultFitConfig); the zero Machine
// is invalid.
type FitConfig struct {
	// Machine is the catalog key to fit ("gtx580", ...).
	Machine string `json:"machine"`
	// Precision is "single" or "double" (default "double").
	Precision string `json:"precision,omitempty"`
	// LoIntensity bounds the training intensity grid from below in
	// flop/byte (default 0.25).
	LoIntensity float64 `json:"lo_intensity,omitempty"`
	// HiIntensity bounds the grid from above (default 64).
	HiIntensity float64 `json:"hi_intensity,omitempty"`
	// Points is the number of log-spaced grid intensities (default 9).
	Points int `json:"points,omitempty"`
	// Reps is the repetitions per (volume, intensity) cell; every
	// repetition is one regression observation (default 8).
	Reps int `json:"reps,omitempty"`
	// Volumes are the per-run DRAM traffic sizes in bytes (default
	// 64 MiB and 256 MiB). At least two distinct volumes are required:
	// within one volume Q is constant, which makes the time plane's
	// Q/W and 1/W regressors collinear.
	Volumes []float64 `json:"volumes,omitempty"`
	// Seed roots the derived noise streams (default 101). The same
	// (config, seed) always fits bit-identical coefficients.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds sweep concurrency (not part of the fit identity:
	// results are byte-identical at any worker count, so it is not on
	// the wire). < 1 means one worker per CPU.
	Workers int `json:"-"`
}

// Fit-campaign defaults: a 2-volume, 9-point, 8-rep sweep (144
// observations per plane) is enough for R² > 0.99 on every catalog
// machine while staying fast enough to fit lazily per server request.
const (
	defaultLoIntensity = 0.25
	defaultHiIntensity = 64
	defaultFitPoints   = 9
	defaultFitReps     = 8
	defaultFitSeed     = 101
)

// defaultVolumes returns the default training volumes (64 and 256 MiB).
func defaultVolumes() []float64 { return []float64{64 << 20, 256 << 20} }

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
	if c.LoIntensity == 0 {
		c.LoIntensity = defaultLoIntensity
	}
	if c.HiIntensity == 0 {
		c.HiIntensity = defaultHiIntensity
	}
	if c.Points == 0 {
		c.Points = defaultFitPoints
	}
	if c.Reps == 0 {
		c.Reps = defaultFitReps
	}
	if len(c.Volumes) == 0 {
		c.Volumes = defaultVolumes()
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
	maxFitPoints  = 1 << 12
	maxFitReps    = 1 << 12
	maxFitVolumes = 16
	maxFitVolume  = 1 << 40 // 1 TiB of simulated traffic per run
)

// Validate reports whether the config describes a runnable fit. It is
// syntactic: the machine key's existence is checked by Fit, which has
// the catalog.
func (c FitConfig) Validate() error {
	if c.Machine == "" {
		return fmt.Errorf("model: fit config needs a machine")
	}
	if _, err := parsePrecision(c.Precision); err != nil {
		return err
	}
	if !(c.LoIntensity > 0) || math.IsInf(c.LoIntensity, 0) {
		return fmt.Errorf("model: lo_intensity must be positive and finite, got %g", c.LoIntensity)
	}
	if !(c.HiIntensity > c.LoIntensity) || math.IsInf(c.HiIntensity, 0) {
		return fmt.Errorf("model: hi_intensity must exceed lo_intensity %g, got %g", c.LoIntensity, c.HiIntensity)
	}
	if c.Points < 2 || c.Points > maxFitPoints {
		return fmt.Errorf("model: points must be in [2, %d], got %d", maxFitPoints, c.Points)
	}
	if c.Reps < 1 || c.Reps > maxFitReps {
		return fmt.Errorf("model: reps must be in [1, %d], got %d", maxFitReps, c.Reps)
	}
	if len(c.Volumes) < 2 || len(c.Volumes) > maxFitVolumes {
		return fmt.Errorf("model: volumes must list 2..%d sizes, got %d", maxFitVolumes, len(c.Volumes))
	}
	distinct := false
	for i, v := range c.Volumes {
		if !(v >= 1) || v > maxFitVolume {
			return fmt.Errorf("model: volume %d must be in [1, %d] bytes, got %g", i, int64(maxFitVolume), v)
		}
		if v != c.Volumes[0] {
			distinct = true
		}
	}
	if !distinct {
		return fmt.Errorf("model: volumes must include at least two distinct sizes (equal volumes leave the time intercept unidentified)")
	}
	return nil
}

// parsePrecision maps the wire names to machine.Precision; the empty
// string means double, matching the rest of the repo's surfaces.
func parsePrecision(name string) (machine.Precision, error) {
	switch name {
	case "", "double":
		return machine.Double, nil
	case "single":
		return machine.Single, nil
	}
	return machine.Double, fmt.Errorf("model: unknown precision %q (want \"single\" or \"double\")", name)
}
