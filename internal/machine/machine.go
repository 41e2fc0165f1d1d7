// Package machine defines the parametric hardware platforms the
// reproduction runs against, playing the role of the paper's physical
// testbed (Table III) and its fitted/illustrative energy parameters
// (Tables II and IV).
//
// A Machine is the "ground truth" the simulator realises: time costs
// come from peak throughputs (as the paper instantiates eq. 3 from
// vendor specs), energy costs come from per-flop/per-byte coefficients
// and constant power (as the paper fits in eq. 9), and the imperfection
// profile — the achieved fraction of peak the hand-tuned kernels reach
// in §IV-B — is carried per precision so the simulated measurements
// exhibit the same structure as the measured ones.
package machine

import (
	"encoding/json"
	"fmt"

	"repro/internal/units"
)

// Precision selects single- or double-precision floating point, the
// paper's R regressor (0 = single, 1 = double).
type Precision int

const (
	// Single is 32-bit floating point.
	Single Precision = iota
	// Double is 64-bit floating point.
	Double
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Single:
		return "single"
	case Double:
		return "double"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision maps a name String returns back to its Precision.
// The empty string means Double, the default of every surface that
// takes a precision by name.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "single":
		return Single, nil
	case "double", "":
		return Double, nil
	}
	return Double, fmt.Errorf("unknown precision %q (want \"single\" or \"double\")", name)
}

// WordSize returns the size in bytes of one floating-point word.
func (p Precision) WordSize() int {
	if p == Double {
		return 8
	}
	return 4
}

// Indicator returns the paper's regression indicator R: 0 for single
// precision, 1 for double.
func (p Precision) Indicator() float64 {
	if p == Double {
		return 1
	}
	return 0
}

// PrecisionParams are the per-precision capabilities of a machine.
type PrecisionParams struct {
	// PeakFlops is the peak arithmetic throughput in FLOP/s (Table III).
	PeakFlops float64 `json:"peak_flops"`
	// EnergyPerFlop is the true ε_flop in Joules (Table IV ground truth).
	EnergyPerFlop units.Joules `json:"energy_per_flop"`
	// AchievedFlopFrac is the fraction of PeakFlops a well-tuned,
	// compute-bound kernel reaches (§IV-B: 0.883–0.993 across cases).
	AchievedFlopFrac float64 `json:"achieved_flop_frac"`
	// AchievedBWFrac is the fraction of peak bandwidth a well-tuned,
	// memory-bound kernel reaches in this precision.
	AchievedBWFrac float64 `json:"achieved_bw_frac"`
}

// CacheLevel describes one level of on-chip cache for the multi-level
// energy refinement of §V-C.
type CacheLevel struct {
	// Name is the level label, e.g. "L1" or "L2".
	Name string `json:"name"`
	// Size is the capacity in bytes.
	Size int64 `json:"size"`
	// LineSize is the cache line size in bytes.
	LineSize int `json:"line_size"`
	// Assoc is the set associativity (ways).
	Assoc int `json:"assoc"`
	// EnergyPerByte is the energy to move one byte through this level.
	EnergyPerByte units.Joules `json:"energy_per_byte"`
}

// Machine is a complete platform description.
type Machine struct {
	// Name identifies the platform, e.g. "NVIDIA GTX 580".
	Name string `json:"name"`
	// Bandwidth is the peak DRAM bandwidth in bytes/s (Table III).
	Bandwidth float64 `json:"bandwidth"`
	// EnergyPerByte is the true ε_mem in Joules per byte of DRAM traffic.
	EnergyPerByte units.Joules `json:"energy_per_byte"`
	// ConstantPower is π0, the power burned for the duration of any
	// computation regardless of what it does.
	ConstantPower units.Watts `json:"constant_power"`
	// IdlePower is the measured powered-on-but-idle draw (§V-A reports
	// 39.6 W for the GTX 580); informational, not used by the model.
	IdlePower units.Watts `json:"idle_power"`
	// RatedPower is the vendor's maximum power rating (TDP-style; the
	// GTX 580's 244 W, the i7-950's 130 W chip-only TDP). Informational:
	// the paper's measured GPU benchmark "already begins to exceed" the
	// rating at high intensities, so the rating is not a hard limit.
	RatedPower units.Watts `json:"rated_power"`
	// PowerCap is the hard electrical/thermal throttle limit; sustained
	// draw above it forces a slowdown. Zero means uncapped. It sits
	// above RatedPower: the rating can be exceeded briefly, the cap
	// cannot, which is what bends the measured single-precision GTX 580
	// curve away from the roofline near the balance point (§V-B).
	PowerCap units.Watts `json:"power_cap"`
	// FastMemory is Z, the fast-memory capacity in bytes.
	FastMemory units.Bytes `json:"fast_memory"`
	// SP holds the single-precision capabilities.
	SP PrecisionParams `json:"sp"`
	// DP holds the double-precision capabilities.
	DP PrecisionParams `json:"dp"`
	// Caches lists on-chip cache levels, innermost first.
	Caches []CacheLevel `json:"caches,omitempty"`
	// OperatingPoints is the machine's DVFS curve, slowest point first,
	// ending at the full-clock identity point; empty means the machine
	// has the single catalog operating point (see dvfs.go). Omitted from
	// JSON when empty, so pre-DVFS machine descriptions round-trip
	// byte-identically.
	OperatingPoints []OperatingPoint `json:"operating_points,omitempty"`
}

// Params returns the per-precision parameter block.
func (m *Machine) Params(p Precision) PrecisionParams {
	if p == Double {
		return m.DP
	}
	return m.SP
}

// TauFlop returns τ_flop, the throughput time per flop, for precision p.
func (m *Machine) TauFlop(p Precision) units.Seconds {
	return units.Seconds(1 / m.Params(p).PeakFlops)
}

// TauMem returns τ_mem, the throughput time per byte of DRAM traffic.
func (m *Machine) TauMem() units.Seconds {
	return units.Seconds(1 / m.Bandwidth)
}

// BalanceTime returns B_τ = τ_mem/τ_flop in flops per byte for p.
func (m *Machine) BalanceTime(p Precision) float64 {
	return m.Params(p).PeakFlops / m.Bandwidth
}

// BalanceEnergy returns B_ε = ε_mem/ε_flop in flops per byte for p.
func (m *Machine) BalanceEnergy(p Precision) float64 {
	return float64(m.EnergyPerByte) / float64(m.Params(p).EnergyPerFlop)
}

// Validate checks that the machine description is physically sensible.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("machine: missing name")
	}
	if m.Bandwidth <= 0 {
		return fmt.Errorf("machine %s: bandwidth must be positive", m.Name)
	}
	if m.EnergyPerByte <= 0 {
		return fmt.Errorf("machine %s: energy per byte must be positive", m.Name)
	}
	if m.ConstantPower < 0 || m.IdlePower < 0 || m.PowerCap < 0 || m.RatedPower < 0 {
		return fmt.Errorf("machine %s: powers must be non-negative", m.Name)
	}
	for _, pp := range []struct {
		prec Precision
		p    PrecisionParams
	}{{Single, m.SP}, {Double, m.DP}} {
		if pp.p.PeakFlops <= 0 {
			return fmt.Errorf("machine %s: %v peak flops must be positive", m.Name, pp.prec)
		}
		if pp.p.EnergyPerFlop <= 0 {
			return fmt.Errorf("machine %s: %v energy per flop must be positive", m.Name, pp.prec)
		}
		if pp.p.AchievedFlopFrac <= 0 || pp.p.AchievedFlopFrac > 1 {
			return fmt.Errorf("machine %s: %v achieved flop fraction must be in (0,1]", m.Name, pp.prec)
		}
		if pp.p.AchievedBWFrac <= 0 || pp.p.AchievedBWFrac > 1 {
			return fmt.Errorf("machine %s: %v achieved bandwidth fraction must be in (0,1]", m.Name, pp.prec)
		}
	}
	for i, c := range m.Caches {
		if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
			return fmt.Errorf("machine %s: cache level %d (%s) has non-positive geometry", m.Name, i, c.Name)
		}
		if c.Size%int64(c.LineSize) != 0 {
			return fmt.Errorf("machine %s: cache level %d (%s) size not a multiple of line size", m.Name, i, c.Name)
		}
		if (c.Size/int64(c.LineSize))%int64(c.Assoc) != 0 {
			return fmt.Errorf("machine %s: cache level %d (%s) lines not divisible by associativity", m.Name, i, c.Name)
		}
		if c.EnergyPerByte < 0 {
			return fmt.Errorf("machine %s: cache level %d (%s) negative energy", m.Name, i, c.Name)
		}
	}
	if len(m.OperatingPoints) > 0 {
		if err := ValidateCurve(m.OperatingPoints); err != nil {
			return fmt.Errorf("machine %s: %v", m.Name, err)
		}
	}
	return nil
}

// MarshalJSON / round-tripping use the default struct encoding; Clone
// gives an independent deep copy.
func (m *Machine) Clone() *Machine {
	c := *m
	c.Caches = append([]CacheLevel(nil), m.Caches...)
	c.OperatingPoints = CloneCurve(m.OperatingPoints)
	return &c
}

// ToJSON serialises the machine description.
func (m *Machine) ToJSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// FromJSON parses and validates a machine description.
func FromJSON(data []byte) (*Machine, error) {
	var m Machine
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("machine: %v", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
