package units

import (
	"math"
	"strings"
	"testing"
)

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{1.9e-12, "s", "1.9 ps"},
		{6.9e-12, "s", "6.9 ps"},
		{25e-12, "J", "25 pJ"},
		{360e-12, "J", "360 pJ"},
		{515e9, "FLOP/s", "515 GFLOP/s"},
		{144e9, "B/s", "144 GB/s"},
		{130, "W", "130 W"},
		{0, "W", "0 W"},
		{1e3, "B", "1 kB"},
		{-2.5e6, "B", "-2.5 MB"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v, c.unit, 3); got != c.want {
			t.Errorf("FormatSI(%g, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	if got := Watts(5).Mul(Seconds(2)); got != Joules(10) {
		t.Errorf("5 W * 2 s = %v, want 10 J", got)
	}
}

func TestConstructors(t *testing.T) {
	if got := PicoJoules(25); math.Abs(float64(got)-25e-12) > 1e-24 {
		t.Errorf("PicoJoules(25) = %v", got)
	}
	if got := PicoJoules(513).AsPicoJoules(); math.Abs(got-513) > 1e-9 {
		t.Errorf("AsPicoJoules = %g, want 513", got)
	}
}

func TestStringers(t *testing.T) {
	checks := []struct {
		s    interface{ String() string }
		want string
	}{
		{Seconds(1.5e-3), "1.5 ms"},
		{Joules(0.25), "250 mJ"},
		{Watts(122), "122 W"},
		{Bytes(1 << 30), "1.074 GB"},
		{Flops(2e9), "2 Gflop"},
	}
	for _, c := range checks {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFormatSIDefaultsAndEdges(t *testing.T) {
	if got := FormatSI(1, "x", 0); got != "1 x" {
		t.Errorf("sig<1 default: %q", got)
	}
	if got := FormatSI(math.NaN(), "J", 3); !strings.HasPrefix(got, "NaN") {
		t.Errorf("NaN formatting: %q", got)
	}
	if got := FormatSI(math.Inf(1), "J", 3); !strings.Contains(got, "Inf") {
		t.Errorf("Inf formatting: %q", got)
	}
	// Below the smallest prefix: falls back to femto.
	if got := FormatSI(1e-18, "J", 3); got != "0.001 fJ" {
		t.Errorf("tiny value: %q", got)
	}
}
