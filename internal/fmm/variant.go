package fmm

import (
	"fmt"
	"hash/fnv"
)

// Layout selects the particle data layout of a code variant.
type Layout int

const (
	// SoA is structure-of-arrays (x[], y[], z[], d[]).
	SoA Layout = iota
	// AoS is array-of-structures (interleaved 16-byte records).
	AoS
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if l == AoS {
		return "AoS"
	}
	return "SoA"
}

// Staging selects where a variant stages source data for reuse.
type Staging int

const (
	// CacheOnly relies on L1/L2 for all reuse — the class the paper's
	// fitted 187 pJ/B cache cost applies to ("about 160 such kernels").
	CacheOnly Staging = iota
	// SharedMem stages source blocks in scratchpad memory.
	SharedMem
	// TextureMem reads sources through the texture path.
	TextureMem
)

// String implements fmt.Stringer.
func (s Staging) String() string {
	switch s {
	case SharedMem:
		return "shared"
	case TextureMem:
		return "texture"
	default:
		return "cache"
	}
}

// Shape is what decides a variant's memory traffic: Tree.SimulateTraffic
// reads nothing else, so variants that share a Shape share a Traffic.
type Shape struct {
	// Layout is the particle data layout.
	Layout Layout
	// Staging is the data-reuse mechanism.
	Staging Staging
	// TargetTile is the number of targets register-blocked per source
	// sweep (1 = no register blocking, the reference setting).
	TargetTile int
}

// IsCacheOnly reports whether the shape relies only on L1/L2 for
// reuse.
func (s Shape) IsCacheOnly() bool { return s.Staging == CacheOnly }

// Variant is one FMM U-list code variant — the reproduction's analogue
// of the paper's ~390 generated implementations, parameterised by the
// optimisation techniques the paper's generator varied: its traffic
// Shape plus two knobs that set only its Efficiency.
type Variant struct {
	// ID is a stable index in the population.
	ID int
	Shape
	// Unroll is the inner-loop unroll depth (performance only).
	Unroll int
	// VectorWidth is the SIMD width (performance only).
	VectorWidth int
}

// IsReference reports whether the variant is the paper's reference
// implementation: cache-only, no register blocking, scalar.
func (v Variant) IsReference() bool {
	return v.Staging == CacheOnly && v.Layout == SoA && v.TargetTile == 1 && v.Unroll == 1 && v.VectorWidth == 1
}

// Name renders a short human-readable variant label.
func (v Variant) Name() string {
	return fmt.Sprintf("v%03d-%s-%s-t%d-u%d-w%d", v.ID, v.Layout, v.Staging, v.TargetTile, v.Unroll, v.VectorWidth)
}

// Efficiency returns the variant's achieved fraction of peak compute
// throughput, a deterministic function of its optimisation parameters:
// register blocking and unrolling help (saturating), AoS costs a
// little, scratchpad staging helps, and a small per-variant hash jitter
// stands in for the unmodelled effects that spread real measurements.
func (v Variant) Efficiency() float64 {
	eff := 0.30
	// Register blocking up to +0.30, saturating at tile 16.
	t := v.TargetTile
	if t > 16 {
		t = 16
	}
	eff += 0.30 * float64(t) / 16
	// Unrolling up to +0.12, saturating at 8.
	u := v.Unroll
	if u > 8 {
		u = 8
	}
	eff += 0.12 * float64(u) / 8
	// Vector width up to +0.08.
	w := v.VectorWidth
	if w > 4 {
		w = 4
	}
	eff += 0.08 * float64(w) / 4
	if v.Staging == SharedMem {
		eff += 0.08
	}
	if v.Staging == TextureMem {
		eff += 0.04
	}
	if v.Layout == AoS {
		eff -= 0.05
	}
	// Deterministic ±3% jitter from the variant identity.
	h := fnv.New32a()
	fmt.Fprintf(h, "%s", v.Name())
	jitter := (float64(h.Sum32()%1000)/1000 - 0.5) * 0.06
	eff += jitter
	if eff < 0.10 {
		eff = 0.10
	}
	if eff > 0.95 {
		eff = 0.95
	}
	return eff
}

// GenerateVariants produces the study population: a full cross of
// layouts × tiles × unrolls × widths for the cache-only class (168
// variants), plus shared- and texture-staged classes with two widths
// each (112 + 112), totalling 392 — matching the paper's "approximately
// 390 different code implementations" of which "about 160" are
// L1/L2-only. The 392 variants have 42 shapes (2 layouts × 7 tiles ×
// 3 stagings), 14 of them cache-only.
func GenerateVariants() []Variant {
	tiles := []int{1, 2, 4, 8, 16, 32, 64}
	unrolls := []int{1, 2, 4, 8}
	var out []Variant
	add := func(v Variant) {
		v.ID = len(out)
		out = append(out, v)
	}
	for _, layout := range []Layout{SoA, AoS} {
		for _, tile := range tiles {
			for _, unroll := range unrolls {
				for _, w := range []int{1, 2, 4} {
					add(Variant{Shape: Shape{Layout: layout, Staging: CacheOnly, TargetTile: tile}, Unroll: unroll, VectorWidth: w})
				}
			}
		}
	}
	for _, staging := range []Staging{SharedMem, TextureMem} {
		for _, layout := range []Layout{SoA, AoS} {
			for _, tile := range tiles {
				for _, unroll := range unrolls {
					for _, w := range []int{1, 4} {
						add(Variant{Shape: Shape{Layout: layout, Staging: staging, TargetTile: tile}, Unroll: unroll, VectorWidth: w})
					}
				}
			}
		}
	}
	return out
}
