// Package fmm implements the fast multipole method's U-list (near
// field, particle-to-particle) phase, the paper's §V-C case study. It
// provides the spatial octree, U-list construction, the Algorithm-1
// interaction kernel (11 flops per point pair, reciprocal square root
// counted as one flop), a generator for a population of code variants
// with diverse memory behaviour, and the energy-estimation study that
// reproduces the paper's 33%-underestimate → fit 187 pJ/B cache term →
// ~4% median error pipeline.
package fmm

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Points is a structure-of-arrays particle set: coordinates in the unit
// cube, a source density D per point, and an output potential Phi.
type Points struct {
	// X, Y and Z are the coordinates.
	X, Y, Z []float64
	// D is the source density of each point.
	D []float64
	// Phi receives the computed potential of each point.
	Phi []float64
}

// NewPoints allocates an empty set of n points.
func NewPoints(n int) *Points {
	return &Points{
		X:   make([]float64, n),
		Y:   make([]float64, n),
		Z:   make([]float64, n),
		D:   make([]float64, n),
		Phi: make([]float64, n),
	}
}

// Len returns the number of points.
func (p *Points) Len() int { return len(p.X) }

// Validate checks the SoA invariants and that points lie in [0,1)³.
func (p *Points) Validate() error {
	n := len(p.X)
	if len(p.Y) != n || len(p.Z) != n || len(p.D) != n || len(p.Phi) != n {
		return errors.New("fmm: ragged point arrays")
	}
	for i := 0; i < n; i++ {
		if p.X[i] < 0 || p.X[i] >= 1 || p.Y[i] < 0 || p.Y[i] >= 1 || p.Z[i] < 0 || p.Z[i] >= 1 {
			return fmt.Errorf("fmm: point %d outside the unit cube", i)
		}
	}
	return nil
}

// UniformPoints returns n points uniformly distributed in the unit cube
// with unit-mean densities, deterministically from seed.
func UniformPoints(n int, seed int64) *Points {
	r := stats.NewRand(seed)
	p := NewPoints(n)
	for i := 0; i < n; i++ {
		p.X[i] = r.Float64()
		p.Y[i] = r.Float64()
		p.Z[i] = r.Float64()
		p.D[i] = 0.5 + r.Float64()
	}
	return p
}

// ClusteredPoints returns n points drawn around k Gaussian clusters —
// the non-uniform distribution that gives FMM trees adaptive depth.
func ClusteredPoints(n, k int, seed int64) *Points {
	if k < 1 {
		k = 1
	}
	r := stats.NewRand(seed)
	centers := make([][3]float64, k)
	for i := range centers {
		centers[i] = [3]float64{0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64()}
	}
	p := NewPoints(n)
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= 1 {
			return math1m
		}
		return v
	}
	for i := 0; i < n; i++ {
		c := centers[r.Intn(k)]
		p.X[i] = clamp(c[0] + 0.08*r.NormFloat64())
		p.Y[i] = clamp(c[1] + 0.08*r.NormFloat64())
		p.Z[i] = clamp(c[2] + 0.08*r.NormFloat64())
		p.D[i] = 0.5 + r.Float64()
	}
	return p
}

// math1m is the largest float64 strictly below 1, keeping clamped
// coordinates inside the half-open unit cube.
const math1m = 1 - 1e-12
