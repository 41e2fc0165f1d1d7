// Package workload generates the synthetic request traffic the cluster
// simulator (internal/cluster) drives through a fleet of rooflined
// replicas: arrival processes (Poisson, bursty/MMPP, closed-loop) over
// a Zipf-skewed content-key universe, plus byte-exact trace replay.
//
// Every stream is seeded through stats.DeriveSeed, so a Spec is a
// complete, reproducible description of a traffic pattern: the same
// spec yields the same []Request — byte for byte — on any machine, at
// any worker count, on every run. That is the property the fleet
// golden tests and the replay fuzz target pin.
//
// A Request's content identity (Key) determines its kernel shape
// (Work, Intensity) deterministically, mirroring content-addressed
// serving: two requests with the same key describe the same
// computation, so replica caches and coalescing treat them as
// duplicates exactly like the production server would.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/strictjson"
)

// Arrival-process kinds accepted by Spec.Kind.
const (
	// Poisson is an open-loop memoryless arrival process at Spec.Rate
	// requests per second.
	Poisson = "poisson"
	// MMPP is an open-loop two-state Markov-modulated Poisson process:
	// calm periods at Spec.Rate, bursts at Spec.BurstRate, with
	// exponentially distributed state dwell times.
	MMPP = "mmpp"
	// Closed is a closed-loop workload: Spec.Clients clients each issue
	// one request, wait for its completion, think for an exponential
	// delay, and issue the next. Request.Time holds the think delay.
	Closed = "closed"
)

// Request is one unit of synthetic traffic: 32 bytes, holding only
// what varies per request. Its ID is its index in Trace.Requests, and
// in a closed-loop trace request i is issued by client i mod
// Trace.Clients; the replay format spells both out (see Marshal).
type Request struct {
	// Time is the absolute arrival time in seconds for open-loop kinds
	// (non-decreasing across the trace); for closed-loop traces it is
	// the issuing client's think delay before this request, counted
	// from the completion of the client's previous request (or from
	// t = 0 for the client's first request).
	Time float64 `json:"time"`
	// Key is the request's content identity: requests with equal keys
	// describe the identical computation and are cacheable/coalescible
	// duplicates of each other.
	Key uint64 `json:"key"`
	// Work is the kernel's arithmetic work W in flops, derived from Key.
	Work float64 `json:"work"`
	// Intensity is the kernel's operational intensity I in flops/byte,
	// derived from Key.
	Intensity float64 `json:"intensity"`
}

// Spec describes one reproducible traffic pattern. The zero value is
// invalid; construct via DefaultSpec or JSON and check with Validate.
type Spec struct {
	// Kind selects the arrival process: Poisson, MMPP, or Closed.
	Kind string `json:"kind"`
	// Rate is the mean arrival rate in requests/second (Poisson, and
	// the calm-state rate for MMPP).
	Rate float64 `json:"rate,omitempty"`
	// BurstRate is the MMPP burst-state arrival rate.
	BurstRate float64 `json:"burst_rate,omitempty"`
	// CalmDwell is the MMPP mean dwell time in the calm state, seconds.
	CalmDwell float64 `json:"calm_dwell_seconds,omitempty"`
	// BurstDwell is the MMPP mean dwell time in the burst state, seconds.
	BurstDwell float64 `json:"burst_dwell_seconds,omitempty"`
	// Clients is the closed-loop client population.
	Clients int `json:"clients,omitempty"`
	// ThinkSeconds is the closed-loop mean think time between a
	// client's completion and its next request.
	ThinkSeconds float64 `json:"think_seconds,omitempty"`
	// Requests is the total request count to generate.
	Requests int `json:"requests"`
	// Keys is the content-key universe size popularity is drawn over.
	Keys int `json:"keys"`
	// ZipfS is the Zipf popularity exponent (0 = uniform; real content
	// skews are typically 0.6–1.3).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// WorkFlops is the base kernel work W; per-key work varies in
	// [0.5, 1.5] × WorkFlops.
	WorkFlops float64 `json:"work_flops,omitempty"`
	// LoIntensity and HiIntensity bound the log-uniform per-key
	// operational intensity.
	LoIntensity float64 `json:"lo_intensity,omitempty"`
	// HiIntensity is the upper intensity bound.
	HiIntensity float64 `json:"hi_intensity,omitempty"`
	// Seed is the base seed every derived stream descends from.
	Seed int64 `json:"seed"`
}

// DefaultSpec returns a small, valid Poisson spec to build on.
func DefaultSpec() Spec {
	return Spec{
		Kind:        Poisson,
		Rate:        100,
		Requests:    10000,
		Keys:        1000,
		ZipfS:       1.1,
		WorkFlops:   1e9,
		LoIntensity: 0.5,
		HiIntensity: 8,
		Seed:        42,
	}
}

// MaxRequests bounds Spec.Requests: an allocation guard (a trace row
// is 32 bytes, so the bound caps a trace at 128 MiB), not a semantic
// limit.
const MaxRequests = 4 << 20

// MaxKeys bounds the content universe (the Zipf CDF is O(Keys) floats).
const MaxKeys = 1 << 22

// finitePos reports a usable positive float.
func finitePos(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Validate reports whether the spec describes a generatable workload.
// It rejects NaN/Inf fields, non-positive rates and populations, and
// allocation-scale request counts.
func (s Spec) Validate() error {
	switch s.Kind {
	case Poisson:
		if !finitePos(s.Rate) {
			return errors.New("workload: poisson needs a positive finite rate")
		}
	case MMPP:
		if !finitePos(s.Rate) || !finitePos(s.BurstRate) {
			return errors.New("workload: mmpp needs positive finite rate and burst_rate")
		}
		if !finitePos(s.CalmDwell) || !finitePos(s.BurstDwell) {
			return errors.New("workload: mmpp needs positive finite dwell times")
		}
	case Closed:
		if s.Clients < 1 {
			return errors.New("workload: closed loop needs at least one client")
		}
		if s.Clients > s.Requests {
			return errors.New("workload: closed loop has more clients than requests")
		}
		if math.IsNaN(s.ThinkSeconds) || math.IsInf(s.ThinkSeconds, 0) || s.ThinkSeconds < 0 {
			return errors.New("workload: think time must be finite and non-negative")
		}
	default:
		return fmt.Errorf("workload: unknown kind %q (want %q, %q, or %q)", s.Kind, Poisson, MMPP, Closed)
	}
	if s.Requests < 1 || s.Requests > MaxRequests {
		return fmt.Errorf("workload: requests must be in [1, %d]", MaxRequests)
	}
	if s.Keys < 1 || s.Keys > MaxKeys {
		return fmt.Errorf("workload: keys must be in [1, %d]", MaxKeys)
	}
	if math.IsNaN(s.ZipfS) || math.IsInf(s.ZipfS, 0) || s.ZipfS < 0 {
		return errors.New("workload: zipf_s must be finite and non-negative")
	}
	if !finitePos(s.WorkFlops) {
		return errors.New("workload: work_flops must be positive and finite")
	}
	if !finitePos(s.LoIntensity) || !finitePos(s.HiIntensity) || s.HiIntensity < s.LoIntensity {
		return errors.New("workload: intensity bounds must be positive, finite, and ordered")
	}
	return nil
}

// Trace is a generated (or replayed) request stream plus its
// provenance. A request's ID is its index; for open-loop kinds arrival
// times are non-decreasing.
type Trace struct {
	// Spec is the generating spec (zero for hand-built traces).
	Spec Spec `json:"spec"`
	// Closed marks a closed-loop trace (Request.Time is a think delay).
	Closed bool `json:"closed,omitempty"`
	// Clients is the closed-loop client population (0 for open loop).
	Clients int `json:"clients,omitempty"`
	// Requests is the stream itself.
	Requests []Request `json:"requests"`
}

// Derivation labels for the independent random streams; folding a
// distinct label per stream keeps arrivals, popularity, and state
// switching uncorrelated while still descending from one seed.
const (
	labelArrivals = 0x41525256 // "ARRV"
	labelKeys     = 0x4b455953 // "KEYS"
	labelPhase    = 0x50484153 // "PHAS"
	labelKernel   = 0x4b524e4c // "KRNL"
)

// keyFor derives the stable content identity of popularity rank r.
// Identity depends only on (seed, rank): every request for rank r —
// in any trace generated from the same seed — carries the same key.
func keyFor(seed int64, rank int) uint64 {
	return stats.DeriveState(seed, labelKeys, uint64(rank))
}

// kernelFor derives the kernel shape bound to a content key. Work
// varies in [0.5, 1.5]× base, intensity log-uniformly in [lo, hi]; both
// are pure functions of the key so duplicate keys mean duplicate
// computations.
func kernelFor(key uint64, base, lo, hi float64) (work, intensity float64) {
	u1 := float64(stats.ExtendState(key, labelKernel)>>11) / (1 << 53)
	u2 := float64(stats.ExtendState(key, labelKernel+1)>>11) / (1 << 53)
	work = base * (0.5 + u1)
	l0, l1 := math.Log2(lo), math.Log2(hi)
	intensity = math.Exp2(l0 + u2*(l1-l0))
	return work, intensity
}

// Generate produces the full request trace for spec. Generation is a
// pure function of the spec: same spec, same bytes.
func Generate(spec Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	zipf, err := stats.NewZipf(spec.Keys, spec.ZipfS)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	arrivals := stats.DeriveRand(spec.Seed, labelArrivals)
	popularity := stats.DeriveRand(spec.Seed, labelKeys)
	phase := stats.DeriveRand(spec.Seed, labelPhase)

	tr := &Trace{
		Spec:     spec,
		Closed:   spec.Kind == Closed,
		Clients:  spec.Clients,
		Requests: make([]Request, spec.Requests),
	}
	if !tr.Closed {
		tr.Clients = 0
	}

	// Arrival (or think) times per kind.
	switch spec.Kind {
	case Poisson:
		t := 0.0
		for i := range tr.Requests {
			t += arrivals.Exp(spec.Rate)
			tr.Requests[i].Time = t
		}
	case MMPP:
		// Two-state MMPP: alternate exponential dwell periods between
		// the calm and burst rates; within a state arrivals are Poisson.
		// Memorylessness lets each dwell boundary simply redraw the next
		// inter-arrival at the new state's rate.
		t := 0.0
		burst := false
		dwellEnd := phase.Exp(1 / spec.CalmDwell)
		for i := range tr.Requests {
			rate := spec.Rate
			if burst {
				rate = spec.BurstRate
			}
			next := t + arrivals.Exp(rate)
			for next > dwellEnd {
				// State switch before the candidate arrival: advance to
				// the boundary, flip state, redraw from the boundary.
				t = dwellEnd
				burst = !burst
				mean := spec.CalmDwell
				rate = spec.Rate
				if burst {
					mean = spec.BurstDwell
					rate = spec.BurstRate
				}
				dwellEnd = t + phase.Exp(1/mean)
				next = t + arrivals.Exp(rate)
			}
			t = next
			tr.Requests[i].Time = t
		}
	case Closed:
		mean := spec.ThinkSeconds
		for i := range tr.Requests {
			think := 0.0
			if mean > 0 {
				think = arrivals.Exp(1 / mean)
			}
			tr.Requests[i].Time = think
		}
	}

	// Content identity and kernel shape, identical across kinds. Both
	// are pure functions of (seed, rank), so a rank's are derived on its
	// first draw and copied on every later one: slot[rank] is 1 + the
	// rank's index in drawn, or 0 until it is drawn.
	type keyKernel struct {
		key             uint64
		work, intensity float64
	}
	slot := make([]int32, spec.Keys)
	drawn := make([]keyKernel, 0, min(spec.Keys, spec.Requests))
	for i := range tr.Requests {
		rank := zipf.Sample(popularity)
		k := slot[rank]
		if k == 0 {
			key := keyFor(spec.Seed, rank)
			work, intensity := kernelFor(key, spec.WorkFlops, spec.LoIntensity, spec.HiIntensity)
			drawn = append(drawn, keyKernel{key, work, intensity})
			k = int32(len(drawn))
			slot[rank] = k
		}
		d, r := &drawn[k-1], &tr.Requests[i]
		r.Key, r.Work, r.Intensity = d.key, d.work, d.intensity
	}
	return tr, nil
}

// wireTrace is a Trace as the replay format spells it: each row also
// carries the id and client that follow from its position in memory.
// Its Requests shadows the embedded Trace's, so the JSON fields keep
// the order spec, closed, clients, requests.
type wireTrace struct {
	Trace
	Requests []wireRequest `json:"requests"`
}

// wireRequest is one replay row: id, then the Request's fields, then
// the client, which is omitted when 0.
type wireRequest struct {
	ID int `json:"id"`
	Request
	Client int `json:"client,omitempty"`
}

// client returns the client that issues request i: i mod Clients in a
// closed-loop trace, 0 in an open-loop one.
func (t *Trace) client(i int) int {
	if !t.Closed || t.Clients < 1 {
		return 0
	}
	return i % t.Clients
}

// Marshal renders the trace as deterministic JSON — the on-disk replay
// format, with every row's id and client written out. ParseTrace(
// Marshal(t)) reproduces t exactly.
func (t *Trace) Marshal() ([]byte, error) {
	w := wireTrace{Trace: Trace{Spec: t.Spec, Closed: t.Closed, Clients: t.Clients}}
	if t.Requests != nil {
		w.Requests = make([]wireRequest, len(t.Requests))
	}
	for i, r := range t.Requests {
		w.Requests[i] = wireRequest{ID: i, Request: r, Client: t.client(i)}
	}
	data, err := json.MarshalIndent(&w, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseTrace strictly decodes a recorded trace and validates it (see
// Validate). The file must also number its rows 0, 1, 2, … and name
// each row's client as Marshal does, client i mod clients in a
// closed-loop trace and none in an open-loop one: the cluster
// simulator's closed loop takes a client's next request to be the one
// Clients indices on.
func ParseTrace(data []byte) (*Trace, error) {
	var w wireTrace
	if err := strictjson.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("workload: bad trace: %v", err)
	}
	t := w.Trace // a copy, so the wire rows do not outlive the parse
	t.Requests = make([]Request, len(w.Requests))
	for i, r := range w.Requests {
		t.Requests[i] = r.Request
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for i, r := range w.Requests {
		if r.ID != i {
			return nil, fmt.Errorf("workload: request %d carries ID %d", i, r.ID)
		}
		if want := t.client(i); r.Client != want {
			if !t.Closed {
				return nil, fmt.Errorf("workload: open-loop request %d names client %d", i, r.Client)
			}
			return nil, fmt.Errorf("workload: closed-loop request %d names client %d, want %d (request i belongs to client i %% clients)", i, r.Client, want)
		}
	}
	return &t, nil
}

// Validate checks the stream invariants every generator guarantees:
// times finite and non-negative, open-loop arrivals non-decreasing,
// kernels positive and finite, and, in a closed-loop trace, between one
// client and as many clients as requests. A request's ID and client are
// not stored, so they cannot contradict its position.
func (t *Trace) Validate() error {
	if len(t.Requests) == 0 {
		return errors.New("workload: trace has no requests")
	}
	if len(t.Requests) > MaxRequests {
		return fmt.Errorf("workload: trace exceeds %d requests", MaxRequests)
	}
	if t.Closed && t.Clients < 1 {
		return errors.New("workload: closed trace needs a client count")
	}
	if t.Closed && t.Clients > len(t.Requests) {
		return errors.New("workload: closed trace has more clients than requests")
	}
	prev := 0.0
	for i := range t.Requests {
		r := &t.Requests[i]
		if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) || r.Time < 0 {
			return fmt.Errorf("workload: request %d has invalid time %v", i, r.Time)
		}
		if !t.Closed {
			if r.Time < prev {
				return fmt.Errorf("workload: arrival times decrease at request %d", i)
			}
			prev = r.Time
		}
		if !finitePos(r.Work) || !finitePos(r.Intensity) {
			return fmt.Errorf("workload: request %d has invalid kernel (W=%v, I=%v)", i, r.Work, r.Intensity)
		}
	}
	return nil
}
