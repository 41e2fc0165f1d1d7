package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// TestGenerateDeterminism pins the package's core contract: a Spec is a
// complete description of its traffic, so generating twice yields
// byte-identical traces, and a different seed yields a different one.
func TestGenerateDeterminism(t *testing.T) {
	spec := DefaultSpec()
	spec.Requests = 5000
	a, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ab, _ := a.Marshal()
	bb, _ := b.Marshal()
	if !bytes.Equal(ab, bb) {
		t.Fatal("same spec generated different traces")
	}
	spec.Seed++
	c, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cb, _ := c.Marshal()
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds generated identical traces")
	}
}

// TestPoissonArrivals checks open-loop stream invariants and that the
// empirical rate matches the spec.
func TestPoissonArrivals(t *testing.T) {
	spec := DefaultSpec()
	spec.Requests = 20000
	spec.Rate = 100
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.Closed || tr.Clients != 0 {
		t.Fatalf("open-loop trace metadata: Closed=%v Clients=%d", tr.Closed, tr.Clients)
	}
	prev := 0.0
	for i, r := range tr.Requests {
		if r.Time < prev {
			t.Fatalf("arrival %d decreases: %v < %v", i, r.Time, prev)
		}
		prev = r.Time
	}
	last := tr.Requests[len(tr.Requests)-1].Time
	want := float64(spec.Requests) / spec.Rate
	if math.Abs(last-want) > 0.05*want {
		t.Fatalf("empirical duration %.2fs, want ~%.2fs", last, want)
	}
}

// TestMMPPArrivals checks the bursty process keeps the open-loop
// invariants and actually modulates: the burst state must compress
// inter-arrivals relative to the calm rate.
func TestMMPPArrivals(t *testing.T) {
	spec := DefaultSpec()
	spec.Kind = MMPP
	spec.Requests = 30000
	spec.Rate = 50
	spec.BurstRate = 1000
	spec.CalmDwell = 5
	spec.BurstDwell = 1
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prev, minGap := 0.0, math.Inf(1)
	for i, r := range tr.Requests {
		if r.Time < prev {
			t.Fatalf("arrival %d decreases", i)
		}
		if gap := r.Time - prev; i > 0 && gap < minGap {
			minGap = gap
		}
		prev = r.Time
	}
	// At 1000 rps bursts the tightest gap should be far below the calm
	// mean of 20ms; a pure 50 rps process would essentially never get
	// 30k samples with a sub-0.1ms minimum gap alongside this makespan.
	if minGap > 1.0/spec.Rate {
		t.Fatalf("min inter-arrival %.4fs shows no burst modulation", minGap)
	}
}

// TestClosedLoop checks think-time semantics: delays are non-negative
// and the empirical mean matches the spec. Clients cycle round-robin by
// construction; TestTraceWireDigests pins the clients a file names.
func TestClosedLoop(t *testing.T) {
	spec := DefaultSpec()
	spec.Kind = Closed
	spec.Clients = 16
	spec.ThinkSeconds = 0.5
	spec.Requests = 20000
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !tr.Closed || tr.Clients != 16 {
		t.Fatalf("trace metadata: Closed=%v Clients=%d", tr.Closed, tr.Clients)
	}
	sum := 0.0
	for i, r := range tr.Requests {
		if r.Time < 0 {
			t.Fatalf("request %d has negative think %v", i, r.Time)
		}
		sum += r.Time
	}
	mean := sum / float64(spec.Requests)
	if math.Abs(mean-spec.ThinkSeconds) > 0.05*spec.ThinkSeconds {
		t.Fatalf("mean think %.4fs, want ~%.2fs", mean, spec.ThinkSeconds)
	}
}

// TestKeyKernelBinding pins content addressing: equal keys always carry
// equal kernels, and Zipf skew actually produces duplicate keys for the
// caches to exploit.
func TestKeyKernelBinding(t *testing.T) {
	spec := DefaultSpec()
	spec.Requests = 10000
	spec.Keys = 500
	spec.ZipfS = 1.2
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	type kernel struct{ w, i float64 }
	seen := map[uint64]kernel{}
	dups := 0
	for _, r := range tr.Requests {
		if !finitePos(r.Work) || !finitePos(r.Intensity) {
			t.Fatalf("invalid kernel W=%v I=%v", r.Work, r.Intensity)
		}
		if r.Intensity < spec.LoIntensity/1.0001 || r.Intensity > spec.HiIntensity*1.0001 {
			t.Fatalf("intensity %v outside [%v, %v]", r.Intensity, spec.LoIntensity, spec.HiIntensity)
		}
		if k, ok := seen[r.Key]; ok {
			dups++
			if k.w != r.Work || k.i != r.Intensity {
				t.Fatalf("key %#x bound to two kernels", r.Key)
			}
		} else {
			seen[r.Key] = kernel{r.Work, r.Intensity}
		}
	}
	if dups == 0 {
		t.Fatal("Zipf traffic produced zero duplicate keys")
	}
	if len(seen) > spec.Keys {
		t.Fatalf("saw %d distinct keys from a %d-key universe", len(seen), spec.Keys)
	}
}

// roundTripSpec is DefaultSpec at 2,000 requests, with the kind's own
// fields set for MMPP and Closed.
func roundTripSpec(kind string) Spec {
	spec := DefaultSpec()
	spec.Kind = kind
	spec.Requests = 2000
	if kind == MMPP {
		spec.BurstRate = 800
		spec.CalmDwell = 3
		spec.BurstDwell = 0.5
	}
	if kind == Closed {
		spec.Clients = 8
		spec.ThinkSeconds = 0.2
	}
	return spec
}

// TestTraceRoundTrip pins the replay format: ParseTrace(Marshal(t))
// reproduces the trace exactly, and re-marshalling is byte-stable.
func TestTraceRoundTrip(t *testing.T) {
	for _, kind := range []string{Poisson, MMPP, Closed} {
		tr, err := Generate(roundTripSpec(kind))
		if err != nil {
			t.Fatalf("%s: Generate: %v", kind, err)
		}
		data, err := tr.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", kind, err)
		}
		back, err := ParseTrace(data)
		if err != nil {
			t.Fatalf("%s: ParseTrace: %v", kind, err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("%s: round trip changed the trace", kind)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", kind, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: re-marshal not byte-stable", kind)
		}
	}
}

// TestTraceWireDigests pins the replay bytes across commits, where the
// round trip above only compares a trace with itself: the SHA-256 and
// size of each kind's Marshal output, ids and clients included, as
// written when rows still stored them.
func TestTraceWireDigests(t *testing.T) {
	for _, c := range []struct {
		kind, sha256 string
		size         int
	}{
		{Poisson, "eac1e63b09e8af57db962c7bdfd43e4f5c5f5473acac92e52f622e10eb00276e", 300776},
		{MMPP, "74fd3677daff372c72d0f736f02ff9e8707426308a7ab3e0c7542a8050e791ea", 300344},
		{Closed, "91df64a0b19057e35f5d4a14a4a7cd310442d4dc6389e8183422dfcb42e8f0cc", 331485},
	} {
		tr, err := Generate(roundTripSpec(c.kind))
		if err != nil {
			t.Fatalf("%s: Generate: %v", c.kind, err)
		}
		data, err := tr.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.kind, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.sha256 || len(data) != c.size {
			t.Errorf("%s: Marshal wrote %d B with SHA-256 %s, want %d B with %s", c.kind, len(data), got, c.size, c.sha256)
		}
	}
}

// TestRequestRowSize pins a row at 32 bytes: time, key, work and
// intensity. A 1M-request trace is 32 MiB of rows; an ID and a client
// field would make it 48.
func TestRequestRowSize(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size != 32 {
		t.Fatalf("a Request is %d bytes, want 32", size)
	}
}

// perRequestKernels is Generate's content loop as it ran before ranks
// were cached: one Zipf draw, one key derivation and one kernel
// derivation per request, written into reqs.
func perRequestKernels(spec Spec, reqs []Request) error {
	zipf, err := stats.NewZipf(spec.Keys, spec.ZipfS)
	if err != nil {
		return err
	}
	popularity := stats.DeriveRand(spec.Seed, labelKeys)
	for i := range reqs {
		r := &reqs[i]
		rank := zipf.Sample(popularity)
		r.Key = keyFor(spec.Seed, rank)
		r.Work, r.Intensity = kernelFor(r.Key, spec.WorkFlops, spec.LoIntensity, spec.HiIntensity)
	}
	return nil
}

// TestGenerateMatchesPerRequestOracle holds the per-rank derivation to
// the per-request loop, row for row: every kind over a universe smaller
// than the trace (1,000 keys, 2,000 requests), a universe larger than
// it, and the uniform s = 0 that bench's batch_cold inputs draw with.
func TestGenerateMatchesPerRequestOracle(t *testing.T) {
	var cases []Spec
	for _, kind := range []string{Poisson, MMPP, Closed} {
		cases = append(cases, roundTripSpec(kind))
	}
	wide := DefaultSpec()
	wide.Requests, wide.Keys = 3000, 50000
	uniform := DefaultSpec()
	uniform.Requests, uniform.Keys, uniform.ZipfS = 4096, 1<<16, 0
	cases = append(cases, wide, uniform)
	for _, spec := range cases {
		name := fmt.Sprintf("%s/keys=%d/s=%v", spec.Kind, spec.Keys, spec.ZipfS)
		tr, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		want := make([]Request, len(tr.Requests))
		for i, r := range tr.Requests {
			want[i].Time = r.Time
		}
		if err := perRequestKernels(spec, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(tr.Requests, want) {
			t.Errorf("%s: Generate's rows differ from the per-request derivation", name)
		}
	}
}

// TestValidateRejects walks the rejection table.
func TestValidateRejects(t *testing.T) {
	base := DefaultSpec()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Kind = "storm" }},
		{"zero rate", func(s *Spec) { s.Rate = 0 }},
		{"nan rate", func(s *Spec) { s.Rate = math.NaN() }},
		{"inf rate", func(s *Spec) { s.Rate = math.Inf(1) }},
		{"negative rate", func(s *Spec) { s.Rate = -5 }},
		{"zero requests", func(s *Spec) { s.Requests = 0 }},
		{"huge requests", func(s *Spec) { s.Requests = MaxRequests + 1 }},
		{"zero keys", func(s *Spec) { s.Keys = 0 }},
		{"huge keys", func(s *Spec) { s.Keys = MaxKeys + 1 }},
		{"negative zipf", func(s *Spec) { s.ZipfS = -1 }},
		{"nan zipf", func(s *Spec) { s.ZipfS = math.NaN() }},
		{"zero work", func(s *Spec) { s.WorkFlops = 0 }},
		{"inverted intensity", func(s *Spec) { s.LoIntensity, s.HiIntensity = 8, 0.5 }},
		{"mmpp no burst", func(s *Spec) { s.Kind = MMPP; s.BurstRate = 0 }},
		{"mmpp nan dwell", func(s *Spec) {
			s.Kind = MMPP
			s.BurstRate = 500
			s.CalmDwell = math.NaN()
			s.BurstDwell = 1
		}},
		{"closed no clients", func(s *Spec) { s.Kind = Closed; s.Clients = 0 }},
		{"closed too many clients", func(s *Spec) { s.Kind = Closed; s.Clients = s.Requests + 1 }},
		{"closed negative think", func(s *Spec) { s.Kind = Closed; s.Clients = 4; s.ThinkSeconds = -1 }},
	}
	for _, tc := range cases {
		s := base
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// TestParseSpecStrict pins which inputs the fuzz target's decoder
// accepts: the canonical form reaches Validate, and unknown fields and
// trailing bytes stop at the strict decode.
func TestParseSpecStrict(t *testing.T) {
	good := []byte(`{"kind":"poisson","rate":100,"requests":10,"keys":5,"zipf_s":1.1,"work_flops":1e9,"lo_intensity":0.5,"hi_intensity":8,"seed":7}`)
	if _, err := parseSpec(good); err != nil {
		t.Fatalf("parseSpec rejected valid spec: %v", err)
	}
	if _, err := parseSpec([]byte(`{"kind":"poisson","rate":1,"requests":1,"keys":1,"work_flops":1,"lo_intensity":1,"hi_intensity":1,"seed":0,"bogus":true}`)); err == nil {
		t.Fatal("parseSpec accepted an unknown field")
	}
	for _, tail := range []string{"garbage", "}", "]", " {}"} {
		if _, err := parseSpec(append(append([]byte{}, good...), tail...)); err == nil {
			t.Errorf("parseSpec accepted trailing %q", tail)
		}
	}
}

// TestParseTraceRejectsTrailingData checks a valid trace followed by
// anything but whitespace is rejected.
func TestParseTraceRejectsTrailingData(t *testing.T) {
	spec := DefaultSpec()
	spec.Requests = 5
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	data, err := tr.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := ParseTrace(append(append([]byte{}, data...), " \n"...)); err != nil {
		t.Fatalf("ParseTrace rejected trailing whitespace: %v", err)
	}
	for _, tail := range []string{"}", "]", " {}"} {
		if _, err := ParseTrace(append(append([]byte{}, data...), tail...)); err == nil {
			t.Errorf("ParseTrace accepted trailing %q", tail)
		}
	}
}

// TestParseTraceRejects checks the stream-invariant validation. Faults
// in what a row holds (time, kernel) and in the trace's shape are made
// in memory and marshalled; faults in what only the file holds (a row's
// id or client) are made in the decoded wire rows and re-encoded.
func TestParseTraceRejects(t *testing.T) {
	spec := DefaultSpec()
	spec.Requests = 50
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	corrupt := func(name string, mut func(*Trace)) {
		cp := *tr
		cp.Requests = append([]Request(nil), tr.Requests...)
		mut(&cp)
		data, err := cp.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if _, err := ParseTrace(data); err == nil {
			t.Errorf("%s: ParseTrace accepted a corrupt trace", name)
		}
	}
	corruptWire := func(name, want string, mut func(*wireTrace)) {
		data, err := tr.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		var w wireTrace
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("%s: decoding the wire rows: %v", name, err)
		}
		mut(&w)
		if data, err = json.MarshalIndent(&w, "", " "); err != nil {
			t.Fatalf("%s: re-encoding: %v", name, err)
		}
		if _, err := ParseTrace(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ParseTrace returned %v, want an error containing %q", name, err, want)
		}
	}
	corruptWire("bad id", "carries ID 99", func(w *wireTrace) { w.Requests[3].ID = 99 })
	corrupt("decreasing time", func(c *Trace) { c.Requests[10].Time = c.Requests[9].Time - 1 })
	corrupt("negative time", func(c *Trace) { c.Requests[0].Time = -0.5 })
	corrupt("zero work", func(c *Trace) { c.Requests[7].Work = 0 })
	corruptWire("client on open loop", "open-loop request 5 names client 2", func(w *wireTrace) { w.Requests[5].Client = 2 })
	corrupt("no requests", func(c *Trace) { c.Requests = nil })
	if _, err := ParseTrace([]byte(`{"spec":{},"requests":[]}`)); err == nil {
		t.Fatal("ParseTrace accepted an empty stream")
	}

	// A closed trace must give request i to client i % Clients: the
	// simulator wakes a client's next request by that rule, so any other
	// assignment would silently drop requests from the replay.
	spec.Kind = Closed
	spec.Clients = 4
	spec.ThinkSeconds = 0.1
	if tr, err = Generate(spec); err != nil {
		t.Fatalf("Generate closed: %v", err)
	}
	const wrongClient = "request i belongs to client i % clients"
	corruptWire("client out of range", wrongClient, func(w *wireTrace) { w.Requests[5].Client = 4 })
	corruptWire("all requests on client 0", wrongClient, func(w *wireTrace) {
		for i := range w.Requests {
			w.Requests[i].Client = 0
		}
	})
	corruptWire("two clients swapped", wrongClient, func(w *wireTrace) {
		w.Requests[8].Client, w.Requests[9].Client = w.Requests[9].Client, w.Requests[8].Client
	})
	corrupt("more clients than requests", func(c *Trace) { c.Requests = c.Requests[:3] })
}
