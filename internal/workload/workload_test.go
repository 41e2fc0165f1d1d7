package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"
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
	prev := 0.0
	for i, r := range tr.Requests {
		if r.Time < prev {
			t.Fatalf("arrival %d decreases: %v < %v", i, r.Time, prev)
		}
		prev = r.Time
		if r.Client != 0 {
			t.Fatalf("open-loop request %d names client %d", i, r.Client)
		}
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

// TestClosedLoop checks think-time semantics: clients cycle round-robin,
// delays are non-negative, and the empirical mean matches the spec.
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
		if r.Client != i%spec.Clients {
			t.Fatalf("request %d on client %d, want %d", i, r.Client, i%spec.Clients)
		}
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

// TestTraceRoundTrip pins the replay format: ParseTrace(Marshal(t))
// reproduces the trace exactly, and re-marshalling is byte-stable.
func TestTraceRoundTrip(t *testing.T) {
	for _, kind := range []string{Poisson, MMPP, Closed} {
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
		tr, err := Generate(spec)
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

// TestParseTraceRejects checks the stream-invariant validation.
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
	corrupt("bad id", func(c *Trace) { c.Requests[3].ID = 99 })
	corrupt("decreasing time", func(c *Trace) { c.Requests[10].Time = c.Requests[9].Time - 1 })
	corrupt("negative time", func(c *Trace) { c.Requests[0].Time = -0.5 })
	corrupt("zero work", func(c *Trace) { c.Requests[7].Work = 0 })
	corrupt("client on open loop", func(c *Trace) { c.Requests[5].Client = 2 })
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
	corrupt("client out of range", func(c *Trace) { c.Requests[5].Client = 4 })
	corrupt("all requests on client 0", func(c *Trace) {
		for i := range c.Requests {
			c.Requests[i].Client = 0
		}
	})
	corrupt("two clients swapped", func(c *Trace) {
		c.Requests[8].Client, c.Requests[9].Client = c.Requests[9].Client, c.Requests[8].Client
	})
	corrupt("more clients than requests", func(c *Trace) { c.Requests = c.Requests[:3] })
}
