package server

import (
	"math"
	"testing"
)

// FuzzResponseEncoding differentially fuzzes the column renderer against
// encoding/json: for every generated response — arbitrary strings in
// the per-response string fields, arbitrary bit patterns in the float
// fields (NaN payloads, ±0, denormals, infinities included) — either
// both fail with the same error text (the first non-finite float in
// wire order) or both produce the identical byte sequence, as a lone
// /v1/eval object and as a batch that repeats and varies its rows. The
// seed corpus in testdata/fuzz/FuzzResponseEncoding pins the
// historically interesting regions: the 1e-6/1e21 format switches,
// negative zero, subnormals, exponent-cleanup boundaries, HTML-escaped
// and invalid-UTF-8 strings. The bound strings select a bound state by
// parity of length, since a response carries only the two canonical
// spellings.
func FuzzResponseEncoding(f *testing.F) {
	f.Add("gtx580", "double", "", "memory", "flop", 1e9, 4.0, 3.0107e-05, 122.4, true, int64(2))
	f.Add("m<&>", "\"\\\n", "blackbox", "\x80\xff", "  ", -0.0, 1e-7, 9.999999999999999e-7, 1e21, false, int64(0))
	f.Add("", "", "", "", "", math.SmallestNonzeroFloat64, -math.MaxFloat64, 2.2250738585072014e-308, 0.9999999999999999e21, true, int64(1))
	f.Add("nan", "inf", "x", "y", "z", math.NaN(), math.Inf(1), math.Inf(-1), 1.0000000000000001e21, false, int64(3))
	f.Fuzz(func(t *testing.T, machine, precision, model, timeBound, energyBound string,
		a, b, c, d float64, flag bool, count int64) {
		// Spread the fuzzed scalars over every float field so each one
		// crosses the format-switch thresholds as the fuzzer mutates.
		r := evalResponse{
			Machine: machine, Precision: precision, Model: model,
			TimeBound: boundName(timeBound), EnergyBound: boundName(energyBound), RaceToHalt: flag,
			Work: a, Intensity: b, Time: c, Energy: d,
			AvgPower: a * b, CappedTime: b + c, CappedEnergy: c - d, CappedPower: d * 2,
			BalanceTime: -a, BalanceEnergy: -b, HalfEfficiency: a / 2, RooflineTime: b * 1e-7,
			ArchlineEnergy: c * 1e21, PowerLine: math.Float64frombits(math.Float64bits(a) ^ math.Float64bits(d)),
			EDP: a + 1, FlopsPerJoule: b - 1, FlopsPerSecond: c * 3, GreenIndex: d / 3, SpeedIndex: a - b,
		}
		// The batch repeats r and appends its mirror image — per-point
		// fields reversed, bounds swapped — so the float memo sees both
		// repeats and fresh values at new offsets.
		n := int(count % 3)
		if n < 0 {
			n = -n
		}
		rows := make([]evalResponse, n, n+1)
		for i := range rows {
			rows[i] = r
		}
		m := r
		m.Work, m.Intensity, m.Time, m.Energy = r.SpeedIndex, r.GreenIndex, r.FlopsPerSecond, r.FlopsPerJoule
		m.AvgPower, m.CappedTime, m.CappedEnergy, m.CappedPower = r.EDP, r.PowerLine, r.ArchlineEnergy, r.RooflineTime
		m.RooflineTime, m.ArchlineEnergy, m.PowerLine, m.EDP = r.CappedPower, r.CappedEnergy, r.CappedTime, r.AvgPower
		m.FlopsPerJoule, m.FlopsPerSecond, m.GreenIndex, m.SpeedIndex = r.Energy, r.Time, r.Intensity, r.Work
		m.TimeBound, m.EnergyBound = r.EnergyBound, r.TimeBound
		if flag {
			rows = append(rows, m)
		}
		withScratch(func(sc *batchScratch) {
			checkRendered(t, sc, r, []evalResponse{r}, false)
			checkRendered(t, sc, r, rows, true)
			checkRendered(t, sc, r, []evalResponse{m}, false)
		})
	})
}

// boundName maps a fuzzed string to one of the two bound spellings.
func boundName(s string) string {
	if len(s)%2 == 1 {
		return "compute-bound"
	}
	return "memory-bound"
}
