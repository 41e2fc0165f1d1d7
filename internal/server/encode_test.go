package server

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// The JSON primitives (encode.go) and the column renderer (render.go)
// exist on one condition: their output is byte-identical to
// json.MarshalIndent(v, "", "  ") plus a trailing newline, including
// every stdlib formatting quirk (float shortest form, exponent cleanup,
// HTML escaping, omitempty, indentation of empty and nested
// containers) and the error for the first non-finite float. These
// tests — and FuzzResponseEncoding in fuzz_encode_test.go — enforce
// that condition differentially against the evalResponse oracle
// (oracle_test.go), so the stdlib encoder remains the executable
// specification.

// stdlibBody is the reference rendering: MarshalIndent + newline,
// exactly what writeJSON and the pre-PR-10 handlers produced.
func stdlibBody(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// diffBytes fails the test with a pinpointed first difference.
func diffBytes(t testing.TB, got, want []byte) {
	t.Helper()
	if string(got) == string(want) {
		return
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	lo := at - 40
	if lo < 0 {
		lo = 0
	}
	t.Fatalf("encoding differs at byte %d:\n got: %q\nwant: %q", at,
		got[lo:min(len(got), at+40)], want[lo:min(len(want), at+40)])
}

// sampleEvalResponse exercises every field with awkward values:
// subnormal, negative zero, huge, tiny, and boundary floats around the
// stdlib's 'f'/'e' format switch.
func sampleEvalResponse() evalResponse {
	return evalResponse{
		Machine:        "gtx580",
		Precision:      "double",
		Model:          "",
		Work:           1e9,
		Intensity:      4,
		Time:           3.0107e-05,
		Energy:         math.SmallestNonzeroFloat64,
		AvgPower:       math.Copysign(0, -1),
		CappedTime:     1e-6,
		CappedEnergy:   9.999999999999999e-7,
		CappedPower:    1e21,
		TimeBound:      "memory",
		EnergyBound:    "flop",
		BalanceTime:    0.9999999999999999e21,
		BalanceEnergy:  -1e-7,
		HalfEfficiency: 6.02214076e23,
		RooflineTime:   math.MaxFloat64,
		ArchlineEnergy: -math.MaxFloat64,
		PowerLine:      244,
		RaceToHalt:     true,
		EDP:            1.5,
		FlopsPerJoule:  0,
		FlopsPerSecond: 123456789.123456789,
		GreenIndex:     2.2250738585072014e-308,
		SpeedIndex:     -42.5,
	}
}

// boundOf maps an oracle bound string to the state the renderer's
// bound columns carry; anything but "compute-bound" is memory-bound,
// as core.BoundState.String reads.
func boundOf(s string) core.BoundState {
	if s == core.ComputeBound.String() {
		return core.ComputeBound
	}
	return core.MemoryBound
}

// renderRows renders rows through the column renderer on scratch sc,
// as the handlers do. The per-response constants (machine, precision,
// model, balance points, race-to-halt) come from head; every per-point
// field comes from its row. batch selects the /v1/evalbatch envelope,
// else rows must hold exactly one point.
func renderRows(sc *batchScratch, head evalResponse, rows []evalResponse, batch bool) ([]byte, error) {
	t := newRenderTemplate(head.Machine, head.Precision, head.Model,
		head.BalanceTime, head.BalanceEnergy, head.HalfEfficiency, head.RaceToHalt)
	n := len(rows)
	var c evalColumns
	for k := range c.f {
		c.f[k] = make([]float64, n)
	}
	c.timeBound = make([]core.BoundState, n)
	c.energyBound = make([]core.BoundState, n)
	for i, r := range rows {
		for k, v := range [numFloatCols]float64{
			colWork: r.Work, colIntensity: r.Intensity, colTime: r.Time, colEnergy: r.Energy,
			colPower: r.AvgPower, colCappedTime: r.CappedTime, colCappedEnergy: r.CappedEnergy,
			colCappedPower: r.CappedPower, colRoofline: r.RooflineTime, colArchline: r.ArchlineEnergy,
			colPowerLine: r.PowerLine, colEDP: r.EDP, colFlopsPerJoule: r.FlopsPerJoule,
			colFlopsPerSecond: r.FlopsPerSecond, colGreenIndex: r.GreenIndex, colSpeedIndex: r.SpeedIndex,
		} {
			c.f[k][i] = v
		}
		c.timeBound[i] = boundOf(r.TimeBound)
		c.energyBound[i] = boundOf(r.EnergyBound)
	}
	sc.cols = c
	return sc.finish(&t, n, batch)
}

// checkRendered renders rows (a lone /v1/eval object unless batch) on
// sc and asserts the bytes, or the error text, equal json.MarshalIndent
// of the oracle. Rows take head's per-response constants and canonical
// bound strings first, since a response cannot vary them per point.
func checkRendered(t testing.TB, sc *batchScratch, head evalResponse, rows []evalResponse, batch bool) {
	t.Helper()
	for i := range rows {
		r := &rows[i]
		r.Machine, r.Precision, r.Model = head.Machine, head.Precision, head.Model
		r.BalanceTime, r.BalanceEnergy, r.HalfEfficiency = head.BalanceTime, head.BalanceEnergy, head.HalfEfficiency
		r.RaceToHalt = head.RaceToHalt
		r.TimeBound, r.EnergyBound = boundOf(r.TimeBound).String(), boundOf(r.EnergyBound).String()
	}
	var oracle any = evalBatchResponse{Machine: head.Machine, Precision: head.Precision, Count: len(rows), Results: rows}
	if !batch {
		oracle = rows[0]
	}
	want, wantErr := stdlibBody(t, oracle)
	got, gotErr := renderRows(sc, head, rows, batch)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error mismatch: stdlib=%v renderer=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("renderer error %q, stdlib %q", gotErr, wantErr)
		}
		if got != nil {
			t.Fatalf("renderer returned a partial body alongside its error: %q", got)
		}
		return
	}
	diffBytes(t, got, want)
}

// withScratch runs fn with a pooled batchScratch, as the handlers do.
func withScratch(fn func(sc *batchScratch)) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	fn(sc)
}

func TestEncodersMatchStdlib(t *testing.T) {
	t.Run("evalResponse", func(t *testing.T) {
		for _, r := range []evalResponse{
			sampleEvalResponse(),
			{TimeBound: "memory-bound", EnergyBound: "memory-bound"}, // all zero values, Model omitted
			{Machine: "m<&>\"\\\n\t\u2028\u2029\x01", Model: "blackbox", Precision: "\xff\xfe"},
		} {
			withScratch(func(sc *batchScratch) { checkRendered(t, sc, r, []evalResponse{r}, false) })
		}
	})
	t.Run("evalBatchResponse", func(t *testing.T) {
		sample := sampleEvalResponse()
		zero := evalResponse{TimeBound: "compute-bound"}
		repeats := sample
		repeats.Time, repeats.CappedTime, repeats.EDP = sample.Work, sample.Work, sample.Work
		for _, c := range []struct {
			head evalResponse
			rows []evalResponse
		}{
			{sample, []evalResponse{sample, zero, repeats, sample}},
			{evalResponse{Machine: "fermi", Precision: "single"}, []evalResponse{zero}},
			{evalResponse{Machine: "x"}, []evalResponse{}}, // empty array
		} {
			withScratch(func(sc *batchScratch) { checkRendered(t, sc, c.head, c.rows, true) })
		}
	})
}

// TestEncodeRejectsNonFinite pins the error contract: NaN/±Inf in any
// float field of a response — per-point column or per-response
// constant — fails rendering with the stdlib's error for the first
// non-finite field in wire order, and nothing half-encoded escapes.
func TestEncodeRejectsNonFinite(t *testing.T) {
	fields := []func(r *evalResponse) *float64{
		func(r *evalResponse) *float64 { return &r.Work },
		func(r *evalResponse) *float64 { return &r.CappedPower },
		func(r *evalResponse) *float64 { return &r.BalanceTime },
		func(r *evalResponse) *float64 { return &r.HalfEfficiency },
		func(r *evalResponse) *float64 { return &r.RooflineTime },
		func(r *evalResponse) *float64 { return &r.EDP },
		func(r *evalResponse) *float64 { return &r.SpeedIndex },
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, field := range fields {
		for j, v := range bad {
			r := sampleEvalResponse()
			*field(&r) = v
			// A second, different non-finite value later in wire order
			// must not be the one reported.
			if i+1 < len(fields) {
				*fields[i+1](&r) = bad[(j+1)%len(bad)]
			}
			if _, err := stdlibBody(t, r); err == nil {
				t.Fatalf("stdlib accepted %v", v)
			}
			withScratch(func(sc *batchScratch) {
				checkRendered(t, sc, r, []evalResponse{r}, false)
				ok := sampleEvalResponse()
				checkRendered(t, sc, r, []evalResponse{ok, r, ok}, true)
			})
		}
	}
}

// TestRenderScratchReuse renders two different responses back to back
// through one scratch, the second repeating the first's values at other
// offsets: a memo entry surviving from the first response would copy
// whatever bytes the second wrote there instead.
func TestRenderScratchReuse(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	first := batchColdRequests(1)[0]
	firstRows, err := oracleEvalBatch(first)
	if err != nil {
		t.Fatal(err)
	}
	second := evalBatchRequest{Machine: "i7-950", Precision: "single"}
	for i := len(first.Work) - 1; i >= 0; i-- {
		second.Work = append(second.Work, first.Work[i])
		second.Intensities = append(second.Intensities, first.Intensities[i])
	}
	secondRows, err := oracleEvalBatch(second)
	if err != nil {
		t.Fatal(err)
	}
	withScratch(func(sc *batchScratch) {
		for round := 0; round < 2; round++ {
			for _, c := range []struct {
				q    evalBatchRequest
				want evalBatchResponse
			}{{first, firstRows}, {second, secondRows}} {
				got, err := s.render(sc, "evalbatch", c.q.Machine, c.q.Precision, c.q.Model, c.q.Work, c.q.Intensities, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := stdlibBody(t, c.want)
				if err != nil {
					t.Fatal(err)
				}
				diffBytes(t, got, want)
				got, err = s.render(sc, "eval", c.q.Machine, c.q.Precision, c.q.Model, c.q.Work[:1], c.q.Intensities[:1], false)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = stdlibBody(t, c.want.Results[0]); err != nil {
					t.Fatal(err)
				}
				diffBytes(t, got, want)
			}
		}
	})
}

// TestFloatMemoGenerationWrap: when the memo's generation stamp wraps,
// a never-written slot (stamp 0, bits 0) must not read as a remembered
// +0.0, whose bits are 0 too.
func TestFloatMemoGenerationWrap(t *testing.T) {
	var m floatMemo
	m.gen = math.MaxUint16 - 1
	for round := 0; round < 4; round++ {
		m.reset()
		b, err := m.appendFloat(nil, 0)
		if err == nil {
			b, err = m.appendFloat(b, 0)
		}
		if err != nil || string(b) != "00" {
			t.Fatalf("round %d (generation %d): rendered %q, %v; want \"00\"", round, m.gen, b, err)
		}
	}
}

// TestAppendJSONFloatFormats spot-checks the exact format-switch
// boundaries the fuzzer found historically interesting.
func TestAppendJSONFloatFormats(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 1e-6, 1e-7, 9.999999999999999e-7,
		1e20, 1e21, -1e21, 1.0000000000000001e21, 3.0107e-05, 1e9,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 2.0 / 3.0,
	}
	for _, v := range cases {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat(nil, v)
		if err != nil {
			t.Fatalf("appendJSONFloat(%g): %v", v, err)
		}
		if string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%g) = %q, stdlib renders %q", v, got, want)
		}
	}
}

// TestAppendHash pins the X-Request-Hash wire format against the
// fmt.Sprintf("%016x", key) it replaced.
func TestAppendHash(t *testing.T) {
	for _, key := range []uint64{0, 1, 0xdeadbeef, ^uint64(0), 1 << 63} {
		got := string(appendHash(nil, key))
		want := fmt.Sprintf("%016x", key)
		if got != want {
			t.Fatalf("appendHash(%#x) = %q, want %q", key, got, want)
		}
	}
	if got := string(appendHash(nil, 0xab)); got != "00000000000000ab" {
		t.Fatalf("appendHash zero-padding broken: %q", got)
	}
}
