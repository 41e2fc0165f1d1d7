package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/strictjson"
)

// clampForFuzz bounds a parsed spec's population sizes so a fuzz
// iteration stays fast, then re-validates (clamping can break the
// clients <= requests relation). It returns false when the clamped
// spec is not generatable.
func clampForFuzz(s *Spec) bool {
	const cap = 2048
	if s.Requests > cap {
		s.Requests = cap
	}
	if s.Keys > cap {
		s.Keys = cap
	}
	if s.Clients > s.Requests {
		s.Clients = s.Requests
	}
	return s.Validate() == nil
}

// checkStream asserts the invariants every generated trace must hold:
// finite non-negative times, open-loop arrivals non-decreasing, kernels
// positive and finite, and duplicate keys bound to identical kernels.
func checkStream(t *testing.T, tr *Trace) {
	t.Helper()
	prev := 0.0
	type kernel struct{ w, i float64 }
	seen := map[uint64]kernel{}
	for i, r := range tr.Requests {
		if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) || r.Time < 0 {
			t.Fatalf("request %d has invalid time %v", i, r.Time)
		}
		if !tr.Closed {
			if r.Time < prev {
				t.Fatalf("arrival %d decreases (inter-arrival %v)", i, r.Time-prev)
			}
			prev = r.Time
		}
		if !finitePos(r.Work) || !finitePos(r.Intensity) {
			t.Fatalf("request %d has invalid kernel W=%v I=%v", i, r.Work, r.Intensity)
		}
		if k, ok := seen[r.Key]; ok {
			if k.w != r.Work || k.i != r.Intensity {
				t.Fatalf("key %#x bound to two kernels", r.Key)
			}
		} else {
			seen[r.Key] = kernel{r.Work, r.Intensity}
		}
	}
}

// parseSpec strictly decodes a Spec (unknown fields and trailing data
// rejected, as ParseTrace decodes a trace's spec) and validates it.
func parseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := strictjson.Unmarshal(data, &s); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// FuzzWorkloadConfig feeds arbitrary bytes through parseSpec and, when
// a spec survives, generates its (clamped) trace and asserts the stream
// invariants — no negative or NaN inter-arrival can escape any spec
// Validate accepts.
func FuzzWorkloadConfig(f *testing.F) {
	def := DefaultSpec()
	for _, s := range []Spec{def,
		{Kind: MMPP, Rate: 50, BurstRate: 900, CalmDwell: 20, BurstDwell: 4,
			Requests: 500, Keys: 64, ZipfS: 1.1, WorkFlops: 1e9,
			LoIntensity: 0.5, HiIntensity: 8, Seed: 7},
		{Kind: Closed, Clients: 16, ThinkSeconds: 0.5, Requests: 400, Keys: 32,
			WorkFlops: 5e8, LoIntensity: 1, HiIntensity: 4, Seed: 99},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatalf("seed spec: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"poisson","rate":-1,"requests":10,"keys":5,"seed":0}`))
	f.Add([]byte(`{"kind":"mmpp","rate":1e308,"burst_rate":1e308,"requests":1,"keys":1,"seed":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseSpec(data)
		if err != nil {
			return
		}
		if !clampForFuzz(&spec) {
			return
		}
		tr, err := Generate(spec)
		if err != nil {
			t.Fatalf("validated spec failed to generate: %v", err)
		}
		checkStream(t, tr)
	})
}

// FuzzArrivalStream builds specs from primitive fuzz inputs and pins
// reproducibility both ways: generating twice from the same seed yields
// the identical stream, and a trace replayed through Marshal/ParseTrace
// equals the generated original byte for byte.
func FuzzArrivalStream(f *testing.F) {
	f.Add(int64(42), uint8(0), 100.0, 900.0, 1.0, 1.1, 300, 64, 8)
	f.Add(int64(7), uint8(1), 50.0, 1200.0, 0.25, 0.8, 500, 128, 4)
	f.Add(int64(-3), uint8(2), 10.0, 10.0, 0.5, 0.0, 200, 16, 16)
	f.Add(int64(0), uint8(2), 1.0, 1.0, 0.0, 2.5, 64, 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, rate, burstRate, extra, zipfS float64, requests, keys, clients int) {
		spec := Spec{
			Kind:         []string{Poisson, MMPP, Closed}[int(kind)%3],
			Rate:         rate,
			BurstRate:    burstRate,
			CalmDwell:    extra * 10,
			BurstDwell:   extra,
			Clients:      clients,
			ThinkSeconds: extra,
			Requests:     requests,
			Keys:         keys,
			ZipfS:        zipfS,
			WorkFlops:    1e9,
			LoIntensity:  0.5,
			HiIntensity:  8,
			Seed:         seed,
		}
		if spec.Validate() != nil || !clampForFuzz(&spec) {
			return
		}
		a, err := Generate(spec)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		checkStream(t, a)
		b, err := Generate(spec)
		if err != nil {
			t.Fatalf("re-Generate: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same spec generated different streams")
		}
		data, err := a.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		replayed, err := ParseTrace(data)
		if err != nil {
			t.Fatalf("ParseTrace rejected a generated trace: %v", err)
		}
		if !reflect.DeepEqual(a, replayed) {
			t.Fatal("replayed stream differs from generated stream")
		}
		again, err := replayed.Marshal()
		if err != nil {
			t.Fatalf("re-Marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("replay round trip not byte-stable")
		}
	})
}

// FuzzParseTrace feeds arbitrary bytes to ParseTrace, the decoder
// behind fleetsim -replay. Whatever it accepts must Marshal and parse
// back to an equal trace. The seeds are short traces on the fleet smoke
// scenario's workload, open and closed, each with the edits ParseTrace
// must reject: a row numbered out of place and a row on the wrong
// client.
func FuzzParseTrace(f *testing.F) {
	smoke := Spec{Kind: Poisson, Rate: 300, Requests: 6, Keys: 50000, ZipfS: 1.1,
		WorkFlops: 1e9, LoIntensity: 0.5, HiIntensity: 8, Seed: 2026}
	closed := smoke
	closed.Kind, closed.Clients, closed.ThinkSeconds = Closed, 3, 0.1
	for _, c := range []struct {
		spec  Spec
		edits [][2]string // from, to
	}{
		{smoke, [][2]string{{`"id": 3,`, `"id": 4,`}, {`"id": 3,`, `"id": 3, "client": 1,`}}},
		{closed, [][2]string{{`"id": 3,`, `"id": 4,`}, {`"client": 1`, `"client": 2`}}},
	} {
		tr, err := Generate(c.spec)
		if err != nil {
			f.Fatalf("seed trace: %v", err)
		}
		data, err := tr.Marshal()
		if err != nil {
			f.Fatalf("seed trace: %v", err)
		}
		f.Add(data)
		for _, e := range c.edits {
			edited := bytes.Replace(data, []byte(e[0]), []byte(e[1]), 1)
			if _, err := ParseTrace(edited); bytes.Equal(edited, data) || err == nil {
				f.Fatalf("seed edit %s -> %s: not made or not rejected (%v)", e[0], e[1], err)
			}
			f.Add(edited)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(data)
		if err != nil {
			return
		}
		out, err := tr.Marshal()
		if err != nil {
			t.Fatalf("Marshal of an accepted trace: %v", err)
		}
		back, err := ParseTrace(out)
		if err != nil {
			t.Fatalf("ParseTrace rejected the Marshal of a trace it accepted: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", tr, back)
		}
	})
}
