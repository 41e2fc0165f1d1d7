package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBatchEval decodes arbitrary parameter sets and (W, Q) vectors
// from the fuzz input, evaluates them through the fused EvalInto batch
// path, and requires every output column to equal the scalar reference
// loop bit for bit. The fuzzer owns the raw float64 bit patterns, so
// NaN payloads, infinities, signed zeros, denormals, and pathological
// parameter combinations are explored without anyone having to imagine
// them first — the adversarial complement of the lockstep tests.
//
// Input layout: the first 48 bytes are six little-endian float64 words
// (τ_flop, τ_mem, ε_flop, ε_mem, π0, cap); each following 16-byte
// record is one (W, Q) point. Trailing partial records are ignored.
func FuzzBatchEval(f *testing.F) {
	le := binary.LittleEndian
	mk := func(params [6]float64, pts ...float64) []byte {
		buf := make([]byte, 0, 48+8*len(pts))
		for _, v := range params {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range pts {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	// Canonical shapes: a realistic machine, a power-capped machine with
	// a point each side of the cap, π0 = 0, NaN/Inf work, zero-traffic
	// and zero-work points, and denormal magnitudes.
	f.Add(mk([6]float64{1e-12, 3e-11, 1e-10, 2e-9, 40, 0}, 1e9, 1e8, 1e6, 1e9))
	f.Add(mk([6]float64{1e-12, 3e-11, 1e-10, 2e-9, 40, 120}, 1e9, 1e5, 1e4, 1e9))
	f.Add(mk([6]float64{2e-12, 8e-11, 5e-10, 2e-9, 0, 0}, 1e9, 1e9))
	f.Add(mk([6]float64{1e-12, 3e-11, 1e-10, 2e-9, 40, 120}, math.NaN(), 1e6, 1e9, math.Inf(1)))
	f.Add(mk([6]float64{1e-12, 3e-11, 1e-10, 2e-9, 40, 120}, 1e9, 0, 0, 0))
	f.Add(mk([6]float64{5e-324, 1e308, 5e-324, 1e308, 1e-30, 0}, 1e300, 1e-300))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 48 {
			return
		}
		var p Params
		p.TauFlop = math.Float64frombits(le.Uint64(data[0:]))
		p.TauMem = math.Float64frombits(le.Uint64(data[8:]))
		p.EpsFlop = math.Float64frombits(le.Uint64(data[16:]))
		p.EpsMem = math.Float64frombits(le.Uint64(data[24:]))
		p.Pi0 = math.Float64frombits(le.Uint64(data[32:]))
		p.PowerCap = math.Float64frombits(le.Uint64(data[40:]))
		rest := data[48:]
		n := len(rest) / 16
		if n > 4096 {
			n = 4096
		}
		w := make([]float64, n)
		q := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i] = math.Float64frombits(le.Uint64(rest[16*i:]))
			q[i] = math.Float64frombits(le.Uint64(rest[16*i+8:]))
		}

		var b Batch
		p.EvalInto(&b, w, q)
		tb := make([]BoundState, n)
		eb := make([]BoundState, n)
		p.TimeBoundInto(tb, w, q)
		p.EnergyBoundInto(eb, w, q)
		for i := 0; i < n; i++ {
			k := Kernel{W: w[i], Q: q[i]}
			checkBits(t, "Time", i, b.Time[i], p.Time(k))
			checkBits(t, "Energy", i, b.Energy[i], p.Energy(k))
			checkBits(t, "Power", i, b.Power[i], p.AveragePower(k))
			checkBits(t, "CappedTime", i, b.CappedTime[i], p.CappedTime(k))
			checkBits(t, "CappedEnergy", i, b.CappedEnergy[i], p.CappedEnergy(k))
			checkBits(t, "CappedPower", i, b.CappedPower[i], p.CappedPower(k))
			if tb[i] != p.TimeBound(k) {
				t.Errorf("TimeBound[%d]: batch %v != scalar %v", i, tb[i], p.TimeBound(k))
			}
			if eb[i] != p.EnergyBound(k) {
				t.Errorf("EnergyBound[%d]: batch %v != scalar %v", i, eb[i], p.EnergyBound(k))
			}
		}
	})
}

// checkBits fails unless got and want share a bit pattern (Errorf, not
// Fatalf, so a single fuzz case reports every diverging column). NaN
// payloads are exempt for the reason documented on bitEq: with several
// NaN operands, which payload propagates is unspecified, and a corpus
// entry (6969cb7c0fe03abc) proves the two paths can legally differ
// there — they must still agree exactly on NaN-ness itself.
func checkBits(t *testing.T, label string, i int, got, want float64) {
	t.Helper()
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s[%d]: batch %v (%#x) != scalar %v (%#x)",
			label, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
