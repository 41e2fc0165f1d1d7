// Package units provides the physical quantities used throughout the
// energy-roofline model: time, energy, power, data volume, and operation
// counts, together with SI-prefixed formatting.
//
// All quantities are represented as float64 in base SI units (seconds,
// Joules, Watts, bytes, operations). Distinct named types keep the
// public API self-documenting and prevent accidental unit mixups, while
// conversion helpers keep arithmetic convenient where the model needs it
// (for example, Power × Time -> Energy).
package units

import (
	"math"
	"strconv"
	"strings"
)

// Seconds is a span of time in seconds.
type Seconds float64

// Joules is an amount of energy in Joules.
type Joules float64

// Watts is a power draw in Watts (Joules per second).
type Watts float64

// Bytes is a data volume in bytes. It is a float because the model
// frequently works with fractional per-operation byte costs.
type Bytes float64

// Flops is a count of "useful" arithmetic operations (the paper's W).
type Flops float64

// Common derived helpers.

// Mul returns the energy accumulated by drawing p Watts for t seconds.
func (p Watts) Mul(t Seconds) Joules {
	return Joules(float64(p) * float64(t))
}

// SI prefix handling -------------------------------------------------------

var siPrefixes = []struct {
	symbol string
	scale  float64
}{
	{"P", 1e15},
	{"T", 1e12},
	{"G", 1e9},
	{"M", 1e6},
	{"k", 1e3},
	{"", 1},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
}

// FormatSI renders v with an SI prefix and the given unit suffix, using
// sig significant digits, e.g. FormatSI(1.9e-12, "s", 3) == "1.90 ps".
// Zero, NaN and infinities are rendered without a prefix.
func FormatSI(v float64, unit string, sig int) string {
	if sig < 1 {
		sig = 3
	}
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return trimFloat(v, sig) + " " + unit
	}
	av := math.Abs(v)
	for _, p := range siPrefixes {
		if av >= p.scale {
			return trimFloat(v/p.scale, sig) + " " + p.symbol + unit
		}
	}
	last := siPrefixes[len(siPrefixes)-1]
	return trimFloat(v/last.scale, sig) + " " + last.symbol + unit
}

func trimFloat(v float64, sig int) string {
	s := strconv.FormatFloat(v, 'g', sig, 64)
	// Expand exponent notation for small magnitudes 'g' may emit.
	if strings.ContainsAny(s, "eE") {
		s = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return s
}

// String implementations ----------------------------------------------------

// String renders the duration with an SI prefix.
func (t Seconds) String() string { return FormatSI(float64(t), "s", 4) }

// String renders the energy with an SI prefix.
func (e Joules) String() string { return FormatSI(float64(e), "J", 4) }

// String renders the power with an SI prefix.
func (p Watts) String() string { return FormatSI(float64(p), "W", 4) }

// String renders the volume with an SI prefix.
func (b Bytes) String() string { return FormatSI(float64(b), "B", 4) }

// String renders the operation count with an SI prefix.
func (f Flops) String() string { return FormatSI(float64(f), "flop", 4) }

// Convenience constructors mirroring the magnitudes the paper uses.

// PicoJoules returns v pJ as Joules.
func PicoJoules(v float64) Joules { return Joules(v * 1e-12) }

// AsPicoJoules reports e in picoJoules.
func (e Joules) AsPicoJoules() float64 { return float64(e) * 1e12 }
