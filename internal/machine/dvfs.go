package machine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// DVFS extension: the catalog freezes each platform at one operating
// point (the vendor clocks of Table III), but dynamic voltage and
// frequency scaling gives every real chip a *curve* of operating
// points. This file adds that dimension.
//
// An OperatingPoint is a set of multiplicative scale factors applied to
// a machine's base (catalog) parameters, so the catalog row stays the
// single source of truth and a point is pure bookkeeping: clocking the
// compute domain to fraction s of its base frequency stretches τ_flop
// by 1/s, scales the dynamic flop energy by V(s)² (capacitive energy
// CV² with the DVFS governor dropping voltage alongside frequency), and
// scales the constant power π0 by a floor-plus-dynamic law
//
//	π0(s) = π0·(κ + (1−κ)·s·V(s)²),   V(s) = Vmin + (1−Vmin)·s,
//
// the fV² dynamic-power law over the fraction (1−κ) of the constant
// draw that is clocked logic, with κ the leakage/fan/board floor that
// never scales. Memory stays on its own clock domain: τ_mem and ε_mem
// are unscaled by a synthesized curve.
//
// The law's parameters are constrained (ScalingLaw.Validate) so that
// π0(s) > s·π0 for every s < 1: a slower clock always burns *more*
// constant energy per unit of compute progress. That convexity is what
// makes the race-to-idle crossover in internal/dvfs exact, and it holds
// for any floor κ with (1−κ)·(1+2·(1−Vmin)) ≤ 1.

// OperatingPoint is one DVFS entry: multiplicative scale factors
// applied to a machine's base parameters. The base catalog row is
// itself the point with every scale equal to 1.
type OperatingPoint struct {
	// Name labels the point, e.g. "0.70x".
	Name string `json:"name"`
	// FreqScale is the compute-clock fraction s ∈ (0, 1] of base.
	FreqScale float64 `json:"freq_scale"`
	// TauFlopScale multiplies τ_flop (1/s for a synthesized point).
	TauFlopScale float64 `json:"tau_flop_scale"`
	// TauMemScale multiplies τ_mem (1 for a synthesized point: memory
	// runs on its own clock domain).
	TauMemScale float64 `json:"tau_mem_scale"`
	// EpsFlopScale multiplies ε_flop (V(s)² for a synthesized point).
	EpsFlopScale float64 `json:"eps_flop_scale"`
	// EpsMemScale multiplies ε_mem (1 for a synthesized point).
	EpsMemScale float64 `json:"eps_mem_scale"`
	// Pi0Scale multiplies π0 (the floor-plus-dynamic law above).
	Pi0Scale float64 `json:"pi0_scale"`
}

// Validate reports whether the point is physically sensible: a named
// clock fraction in (0, 1] with positive, finite scale factors.
func (op OperatingPoint) Validate() error {
	if op.Name == "" {
		return fmt.Errorf("machine: operating point needs a name")
	}
	if !(op.FreqScale > 0) || op.FreqScale > 1 {
		return fmt.Errorf("machine: operating point %q freq scale must be in (0, 1], got %g", op.Name, op.FreqScale)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"tau_flop_scale", op.TauFlopScale},
		{"tau_mem_scale", op.TauMemScale},
		{"eps_flop_scale", op.EpsFlopScale},
		{"eps_mem_scale", op.EpsMemScale},
		{"pi0_scale", op.Pi0Scale},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("machine: operating point %q %s must be positive and finite, got %g", op.Name, f.name, f.v)
		}
	}
	return nil
}

// IsBase reports whether the point is the identity: full clock with
// every scale factor equal to 1.
func (op OperatingPoint) IsBase() bool {
	return op.FreqScale == 1 && op.TauFlopScale == 1 && op.TauMemScale == 1 &&
		op.EpsFlopScale == 1 && op.EpsMemScale == 1 && op.Pi0Scale == 1
}

// BasePoint returns the identity operating point — the catalog row
// itself, at full clock.
func BasePoint() OperatingPoint {
	return OperatingPoint{
		Name:      "1.00x",
		FreqScale: 1, TauFlopScale: 1, TauMemScale: 1,
		EpsFlopScale: 1, EpsMemScale: 1, Pi0Scale: 1,
	}
}

// maxCurvePoints bounds a curve's length, including one read from
// machine JSON.
const maxCurvePoints = 64

// ValidateCurve checks a DVFS curve: every point valid, names unique,
// frequency scales strictly increasing, and the last (fastest) point
// the identity — the catalog row stays the full-clock default.
func ValidateCurve(curve []OperatingPoint) error {
	if len(curve) == 0 {
		return fmt.Errorf("machine: empty operating-point curve")
	}
	if len(curve) > maxCurvePoints {
		return fmt.Errorf("machine: curve has %d points, max %d", len(curve), maxCurvePoints)
	}
	seen := make(map[string]bool, len(curve))
	for i, op := range curve {
		if err := op.Validate(); err != nil {
			return err
		}
		if seen[op.Name] {
			return fmt.Errorf("machine: duplicate operating point name %q", op.Name)
		}
		seen[op.Name] = true
		if i > 0 && !(op.FreqScale > curve[i-1].FreqScale) {
			return fmt.Errorf("machine: operating points must have strictly increasing freq scales (%q %g after %q %g)",
				op.Name, op.FreqScale, curve[i-1].Name, curve[i-1].FreqScale)
		}
	}
	if last := curve[len(curve)-1]; !last.IsBase() {
		return fmt.Errorf("machine: curve's fastest point %q must be the identity (all scales 1)", last.Name)
	}
	return nil
}

// CloneCurve returns an independent copy of a curve.
func CloneCurve(curve []OperatingPoint) []OperatingPoint {
	if curve == nil {
		return nil
	}
	return append([]OperatingPoint(nil), curve...)
}

// ScalingLaw synthesizes a DVFS curve from the voltage-frequency
// coupling documented at the top of this file.
type ScalingLaw struct {
	// VMin is the voltage floor as a fraction of nominal: V(s) =
	// VMin + (1−VMin)·s, the linear governor approximation.
	VMin float64 `json:"v_min,omitempty"`
	// Pi0Floor is κ, the fraction of π0 (leakage, fans, board) that
	// never scales with the clock.
	Pi0Floor float64 `json:"pi0_floor,omitempty"`
}

// DefaultScalingLaw returns the law used for every catalog curve:
// a 0.75 voltage floor and half the constant power unscalable.
func DefaultScalingLaw() ScalingLaw { return ScalingLaw{VMin: 0.75, Pi0Floor: 0.5} }

// Validate checks the law's parameters. Beyond range checks it requires
//
//	(1−κ)·(1+2·(1−VMin)) ≤ 1,
//
// which is exactly d/ds[π0(s)/s] ≥ 0 at s=1; with s·V(s)² convex that
// makes π0(s)/s minimal at full clock for the whole curve — slower
// clocks always pay more constant energy per unit progress, the
// property the race-to-idle crossover (internal/dvfs) relies on.
func (l ScalingLaw) Validate() error {
	if !(l.VMin > 0) || l.VMin > 1 {
		return fmt.Errorf("machine: scaling law v_min must be in (0, 1], got %g", l.VMin)
	}
	if l.Pi0Floor < 0 || l.Pi0Floor > 1 {
		return fmt.Errorf("machine: scaling law pi0_floor must be in [0, 1], got %g", l.Pi0Floor)
	}
	if (1-l.Pi0Floor)*(1+2*(1-l.VMin)) > 1+1e-12 {
		return fmt.Errorf("machine: scaling law (v_min=%g, pi0_floor=%g) lets constant energy per unit progress improve below full clock; need (1-pi0_floor)*(1+2*(1-v_min)) <= 1",
			l.VMin, l.Pi0Floor)
	}
	return nil
}

// Voltage returns V(s) = VMin + (1−VMin)·s.
func (l ScalingLaw) Voltage(s float64) float64 { return l.VMin + (1-l.VMin)*s }

// Point synthesizes the operating point at clock fraction s ∈ (0, 1],
// named "%.2fx".
func (l ScalingLaw) Point(s float64) OperatingPoint {
	v := l.Voltage(s)
	return OperatingPoint{
		Name:         fmt.Sprintf("%.2fx", s),
		FreqScale:    s,
		TauFlopScale: 1 / s,
		TauMemScale:  1,
		EpsFlopScale: v * v,
		EpsMemScale:  1,
		Pi0Scale:     l.Pi0Floor + (1-l.Pi0Floor)*s*v*v,
	}
}

// SLawPoint returns the operating point of the s-law, the paper-side
// DVFS closed form: clock fraction s with V ∝ f and a constant π0, so
// τflop scales by 1/s, εflop by s² and everything else by 1. It is
// ScalingLaw{Pi0Floor: 1}.Point(s).
func SLawPoint(s float64) OperatingPoint { return ScalingLaw{Pi0Floor: 1}.Point(s) }

// Curve synthesizes and validates a curve at the given clock fractions,
// which must be strictly increasing and end at 1 (the base point).
func (l ScalingLaw) Curve(scales []float64) ([]OperatingPoint, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	curve := make([]OperatingPoint, 0, len(scales))
	for _, s := range scales {
		if !(s > 0) || s > 1 {
			return nil, fmt.Errorf("machine: curve freq scale must be in (0, 1], got %g", s)
		}
		if s == 1 {
			curve = append(curve, BasePoint())
			continue
		}
		curve = append(curve, l.Point(s))
	}
	if err := ValidateCurve(curve); err != nil {
		return nil, err
	}
	return curve, nil
}

// DefaultFreqScales returns the clock fractions of every default
// catalog curve: five points from 40% to full clock.
func DefaultFreqScales() []float64 { return []float64{0.40, 0.55, 0.70, 0.85, 1.00} }

// DefaultCurve returns the five-point curve every DVFS catalog machine
// carries: DefaultScalingLaw over DefaultFreqScales.
func DefaultCurve() []OperatingPoint {
	curve, err := DefaultScalingLaw().Curve(DefaultFreqScales())
	if err != nil {
		panic("machine: default curve invalid: " + err.Error())
	}
	return curve
}

// Point looks up an operating point on the machine's curve by name.
func (m *Machine) Point(name string) (OperatingPoint, bool) {
	for _, op := range m.OperatingPoints {
		if op.Name == name {
			return op, true
		}
	}
	return OperatingPoint{}, false
}

// Multi-SM family -------------------------------------------------------------

// gtx580SMCount is the GTX 580's full streaming-multiprocessor count.
const gtx580SMCount = 16

// smPowerFloor is the fraction of the GTX 580's constant power that is
// independent of active SM count (memory interface, board, fans).
const smPowerFloor = 0.4

// GTX580SMs returns a GTX 580 variant with n of its 16 streaming
// multiprocessors active — the GPU power roofline's unit of scaling
// (arXiv:1809.09206 models GPU power as a base plus a per-SM term).
// Peak arithmetic throughput scales with n while the memory interface
// (bandwidth, ε_mem, caches) is shared and unscaled; constant power
// follows a floor-plus-linear law:
//
//	π0(n) = π0·(0.4 + 0.6·n/16)
//
// and idle power the same. Per-flop energy is unchanged: fewer SMs do
// the same work with the same switched capacitance, just slower.
// n = 16 is the catalog GTX 580 itself.
func GTX580SMs(n int) *Machine {
	if n < 1 || n > gtx580SMCount {
		panic(fmt.Sprintf("machine: GTX580SMs wants 1..%d SMs, got %d", gtx580SMCount, n))
	}
	m := GTX580()
	if n == gtx580SMCount {
		return m
	}
	frac := float64(n) / gtx580SMCount
	pow := smPowerFloor + (1-smPowerFloor)*frac
	m.Name = fmt.Sprintf("NVIDIA GTX 580 (%d/%d SM)", n, gtx580SMCount)
	m.SP.PeakFlops *= frac
	m.DP.PeakFlops *= frac
	m.ConstantPower = units.Watts(float64(m.ConstantPower) * pow)
	m.IdlePower = units.Watts(float64(m.IdlePower) * pow)
	m.RatedPower = units.Watts(float64(m.RatedPower) * pow)
	return m
}

// DVFSCatalog returns the machines that carry an operating-point curve:
// the two measured catalog platforms plus the multi-SM GTX 580 family,
// each with the default synthesized curve attached. The base Catalog is
// untouched — a machine resolved through it stays single-operating-
// point, which keeps every pre-DVFS golden byte-identical.
func DVFSCatalog() map[string]*Machine {
	withCurve := func(m *Machine) *Machine {
		m.OperatingPoints = DefaultCurve()
		return m
	}
	return map[string]*Machine{
		"gtx580":     withCurve(GTX580()),
		"gtx580-8sm": withCurve(GTX580SMs(8)),
		"gtx580-4sm": withCurve(GTX580SMs(4)),
		"i7-950":     withCurve(CoreI7950()),
	}
}

// DVFSCatalogKeys returns the DVFS catalog's keys, sorted.
func DVFSCatalogKeys() []string {
	m := DVFSCatalog()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Find resolves a machine key against both catalogs: DVFS entries
// (curve attached) take precedence, then the base catalog. For keys in
// both, the machine's base parameters are identical — the DVFS entry
// only adds the curve.
func Find(key string) (*Machine, bool) {
	if m, ok := DVFSCatalog()[key]; ok {
		return m, true
	}
	if m, ok := Catalog()[key]; ok {
		return m, true
	}
	return nil, false
}
