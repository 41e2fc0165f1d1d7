package main

// This file defines the two HTTP workloads and runs them, untraced and
// traced, against rooflined child processes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The HTTP workloads load one rooflined process from this process over a
// fixed number of keep-alive connections, one sender goroutine each.
const (
	connections  = 2   // keep-alive connections; the CPUs of the host the bounds were set on
	setupRepeats = 3   // set-ups per untraced run; setup_s is their median
	sampleEvery  = 101 // every sampleEvery-th response is checked byte for byte
	batchPoints  = 32  // points per /v1/evalbatch request
	zipfKeys     = 500 // content keys of eval_zipf
	benchMachine = "gtx580"
	// Derivation labels of the seeded streams.
	labelOpen    = 0x4f50454e // "OPEN": the open-loop schedule
	labelKeys    = 0x4b455953 // "KEYS": eval_zipf's key kernels
	labelTraffic = 0x54524146 // "TRAF": eval_zipf's request sequence
)

// httpSpec is one HTTP workload.
type httpSpec struct {
	path     string  // endpoint under load
	span     string  // the handler's span name in rooflined -debug traces
	counter  string  // the endpoint's request counter on /metrics
	computes string  // the endpoint's compute counter on /metrics
	warmup   int     // warm-up requests, part of set-up
	openRate float64 // open-loop offered rate, requests/s
	// inputs pre-renders the request bodies from the seed.
	inputs func(seed int64, tiny bool) (*inputs, error)
}

// evalZipf and batchCold are the two HTTP workloads.
var (
	evalZipf = httpSpec{path: "/v1/eval", span: "http.eval", counter: "requests_eval_total",
		computes: "eval_computes_total", warmup: 20000, openRate: 8000, inputs: zipfInputs}
	batchCold = httpSpec{path: "/v1/evalbatch", span: "http.evalbatch", counter: "requests_evalbatch_total",
		computes: "evalbatch_computes_total", warmup: 2000, openRate: 1400, inputs: batchInputs}
)

// inputs are a workload's pre-rendered request bodies. Request i of a
// run sends bodies[seq[i%len(seq)]]; joules[b] is the modelled energy
// the server spends computing body b when it misses the cache.
type inputs struct {
	bodies [][]byte
	joules []float64
	seq    []int32
}

// body returns the body index request i sends.
func (in *inputs) body(i int64) int32 { return in.seq[i%int64(len(in.seq))] }

// benchParams prices the requests' kernels as the server does.
func benchParams() core.Params {
	return core.FromMachine(machine.Catalog()[benchMachine], machine.Double)
}

// zipfInputs draws 2^20 requests (cycled) over 500 keys with Zipf 1.1
// popularity by key rank. The keys' kernels are fixed, like a dataset's
// (work in [0.5, 1.5] Gflop, intensity log-uniform in [0.5, 8] as
// internal/workload draws them), and the seed draws only the traffic,
// so that J/request moves with the hit ratio and not with the keys.
func zipfInputs(seed int64, tiny bool) (*inputs, error) {
	n := 1 << 20
	if tiny {
		n = 1 << 12
	}
	z, err := stats.NewZipf(zipfKeys, 1.1)
	if err != nil {
		return nil, err
	}
	p := benchParams()
	in := &inputs{seq: make([]int32, n)}
	for k := 0; k < zipfKeys; k++ {
		r := stats.DeriveRand(defaultSeed, labelKeys, uint64(k))
		work, intensity := 1e9*(0.5+r.Float64()), math.Exp2(-1+4*r.Float64())
		body := fmt.Sprintf(`{"machine":%q,"precision":"double","work":%s,"intensity":%s}`,
			benchMachine, formatFloat(work), formatFloat(intensity))
		in.bodies = append(in.bodies, []byte(body))
		in.joules = append(in.joules, p.CappedEnergy(core.KernelAt(work, intensity)))
	}
	r := stats.DeriveRand(seed, labelTraffic)
	for i := range in.seq {
		in.seq[i] = int32(z.Sample(r))
	}
	return in, nil
}

// batchInputs renders 8192 batches (cycled) of 32 points drawn uniformly
// from 2^20 keys. A batch recurs only after 8192 others, long after the
// 256-entry cache has evicted it, so every request misses.
func batchInputs(seed int64, tiny bool) (*inputs, error) {
	n := 8192
	if tiny {
		n = 1024
	}
	tr, err := workload.Generate(workload.Spec{Kind: workload.Poisson, Rate: 1, Requests: n * batchPoints,
		Keys: 1 << 20, WorkFlops: 1e9, LoIntensity: 0.5, HiIntensity: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	p := benchParams()
	in := &inputs{seq: make([]int32, n)}
	for b := range in.seq {
		pts := tr.Requests[b*batchPoints : (b+1)*batchPoints]
		var work, intensity []string
		joules := 0.0
		for _, r := range pts {
			work = append(work, formatFloat(r.Work))
			intensity = append(intensity, formatFloat(r.Intensity))
			joules += p.CappedEnergy(core.KernelAt(r.Work, r.Intensity))
		}
		body := fmt.Sprintf(`{"machine":%q,"precision":"double","work":[%s],"intensities":[%s]}`,
			benchMachine, strings.Join(work, ","), strings.Join(intensity, ","))
		in.bodies = append(in.bodies, []byte(body))
		in.joules = append(in.joules, joules)
		in.seq[b] = int32(b)
	}
	return in, nil
}

// formatFloat renders v as the shortest JSON number that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// openSchedule returns Poisson send times at rate per second over d,
// as offsets from the phase start.
func openSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := stats.DeriveRand(seed, labelOpen)
	var out []time.Duration
	for t := r.Exp(rate); t < d.Seconds(); t += r.Exp(rate) {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// reconcile checks a phase's client tallies against the target's
// /metrics counter deltas, which must agree exactly.
func (spec *httpSpec) reconcile(o *outcome, phase string, m *measured) {
	if m.failed > 0 {
		o.fail("%s: %d requests failed; first: %s", phase, m.failed, m.firstErr)
	}
	want := map[string]int64{
		spec.counter:         m.ok(),
		"cache_hits_total":   m.hits,
		"cache_misses_total": m.misses + m.coalesced,
		spec.computes:        m.misses,
		"coalesced_total":    m.coalesced,
	}
	for _, name := range sortedKeys(want) {
		if got := int64(m.delta(name)); got != want[name] {
			o.fail("%s: /metrics %s moved by %d, clients counted %d", phase, name, got, want[name])
		}
	}
}

// verify replays the sampled requests through a fresh in-process server
// and requires byte-identical bodies.
func (spec *httpSpec) verify(o *outcome, phase string, in *inputs, samples []sample) {
	srv := server.New(server.Config{})
	defer srv.Close()
	h := srv.Handler()
	want := map[int32][sha256.Size]byte{}
	for _, s := range samples {
		sum, ok := want[s.body]
		if !ok {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, spec.path, bytes.NewReader(in.bodies[s.body])))
			if rec.Code != http.StatusOK {
				o.fail("%s: in-process replay of body %d: status %d", phase, s.body, rec.Code)
				return
			}
			sum = sha256.Sum256(rec.Body.Bytes())
			want[s.body] = sum
		}
		if sum != s.sum {
			o.fail("%s: response to body %d differs from the in-process server's", phase, s.body)
			return
		}
	}
}

// session is a started target with its load and the set-up time it took.
type session struct {
	t     *target
	l     *load
	setup time.Duration
}

// bringUp starts a target and warms it up; the set-up time runs from
// spawn to the end of the warm-up.
func bringUp(o *outcome, bin string, debug bool, spec *httpSpec, in *inputs, warmup int64) (*session, error) {
	start := time.Now()
	t, err := startTarget(bin, debug)
	if err != nil {
		return nil, err
	}
	l := newLoad(t.url, spec, in)
	w, _ := l.closed(warmup, 0)
	if w.failed > 0 {
		o.fail("warm-up: %d requests failed; first: %s", w.failed, w.firstErr)
	}
	return &session{t: t, l: l, setup: time.Since(start)}, nil
}

// shutdown stops the session's target and reports an unclean exit.
func (s *session) shutdown(o *outcome) {
	s.l.close()
	if err := s.t.stop(); err != nil {
		o.fail("rooflined exited uncleanly: %v", err)
	}
}

// measured is one phase's tally, its wall time, and the target's
// /metrics counters around it.
type measured struct {
	tally
	wall          time.Duration
	before, after map[string]float64
}

// delta returns how far the named counter moved over the phase.
func (m *measured) delta(name string) float64 { return m.after[name] - m.before[name] }

// hitRatio returns the phase's cache hits over cache lookups.
func (m *measured) hitRatio() float64 {
	hits := m.delta("cache_hits_total")
	return hits / (hits + m.delta("cache_misses_total"))
}

// checkedPhase runs one load phase with /metrics scrapes around it, then
// checks it: tallies against counters, sampled bodies against the
// in-process server.
func (s *session) checkedPhase(o *outcome, spec *httpSpec, in *inputs, phase string, run func() (tally, time.Duration)) (*measured, error) {
	before, err := s.t.counters()
	if err != nil {
		return nil, err
	}
	t, wall := run()
	after, err := s.t.counters()
	if err != nil {
		return nil, err
	}
	m := &measured{tally: t, wall: wall, before: before, after: after}
	o.attempted += m.ok() + m.failed
	spec.reconcile(o, phase, m)
	spec.verify(o, phase, in, m.samples)
	if m.ok() == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", phase)
	}
	return m, nil
}

// closedPhase is a checked closed loop of duration d.
func (s *session) closedPhase(o *outcome, spec *httpSpec, in *inputs, phase string, d time.Duration) (*measured, error) {
	return s.checkedPhase(o, spec, in, phase, func() (tally, time.Duration) { return s.l.closed(0, d) })
}

// runHTTP runs one HTTP workload, traced or not.
func runHTTP(cfg runConfig, spec *httpSpec) (*outcome, error) {
	bin, err := buildRooflined(cfg.root, cfg.binDir)
	if err != nil {
		return nil, err
	}
	in, err := spec.inputs(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	warmup := int64(spec.warmup)
	if cfg.tiny {
		warmup = 200
	}
	o := newOutcome()
	if cfg.trace {
		return o, traceHTTP(o, cfg, spec, in, bin, warmup)
	}

	// Set up several times and keep the last target: setup_s is the median.
	var setups []float64
	var s *session
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.shutdown(o)
		}
		if s, err = bringUp(o, bin, false, spec, in, warmup); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer s.shutdown(o)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	c, err := s.closedPhase(o, spec, in, "closed", budget*2/3)
	if err != nil {
		return nil, err
	}
	rates, medians, err := c.windows()
	if err != nil {
		return nil, err
	}
	lat := c.latenciesMS()
	o.values["setup_s"] = median(setups)
	o.values["throughput_rps"] = p90.of(rates)
	o.values["latency_p50_ms"] = p10.of(medians)
	o.values["joules_per_request"] = c.joules / float64(c.ok())
	o.diag["closed.requests"] = float64(len(lat))
	o.diag["closed.windows"] = float64(len(rates))
	o.diag["closed.rps"] = float64(c.ok()) / c.wall.Seconds()
	o.diag["closed.p50_ms"] = p50.of(lat)
	for _, q := range tailLadder[1:] {
		if q.supported(len(lat)) {
			o.diag["closed."+q.name+"_ms"] = q.of(lat)
		}
	}
	o.diag["server.cache_hit_ratio"] = c.hitRatio()
	o.diag["server.evictions_per_req"] = c.delta("cache_evictions") / float64(c.ok())

	var op openResult
	sched := openSchedule(cfg.seed, spec.openRate, budget-budget*2/3)
	if _, err := s.checkedPhase(o, spec, in, "open", func() (tally, time.Duration) {
		op = s.l.open(sched)
		return op.tally, op.wall
	}); err != nil {
		return nil, err
	}
	openLat := op.latenciesMS()
	lags := make([]float64, len(op.lag))
	for i, d := range op.lag {
		lags[i] = ms(d)
	}
	o.diag["open.requests"] = float64(len(openLat))
	o.diag["open.achieved_rps"] = float64(op.ok()) / op.wall.Seconds()
	o.diag["open.p50_ms"] = p50.of(openLat)
	if q, ok := highestTail(len(openLat)); ok {
		o.diag["open."+q.name+"_ms"] = q.of(openLat)
	}
	o.diag["bench.lag_p99_ms"] = p99.of(sorted(lags))
	o.diag["bench.backlog_max"] = float64(op.backlog)

	_, peak, err := s.t.procStatus()
	if err != nil {
		return nil, err
	}
	o.values["peak_rss_mb"] = peak
	return o, nil
}

// chromeEvent is one trace_event record as internal/trace exports it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace_event envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         uint64        `json:"dropped,omitempty"`
}

// drainer empties a -debug target's span ring every half second, so the
// ring never overwrites a span.
type drainer struct {
	t     *target
	stop  chan struct{}
	done  chan struct{}
	pages [][]byte
	err   error
}

// startDrain starts draining t's span ring.
func startDrain(t *target) *drainer {
	d := &drainer{t: t, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				d.fetch()
			case <-d.stop:
				d.fetch()
				return
			}
		}
	}()
	return d
}

// fetch takes one page of spans, clearing the ring.
func (d *drainer) fetch() {
	page, err := d.t.get("/debug/trace?reset=1")
	if err != nil && d.err == nil {
		d.err = err
	}
	d.pages = append(d.pages, page)
}

// finish stops draining and returns every span taken, with the number
// the ring dropped.
func (d *drainer) finish() (*chromeTrace, error) {
	close(d.stop)
	<-d.done
	if d.err != nil {
		return nil, d.err
	}
	all := &chromeTrace{DisplayTimeUnit: "ms"}
	for _, page := range d.pages {
		var ct chromeTrace
		if err := json.Unmarshal(page, &ct); err != nil {
			return nil, fmt.Errorf("server trace: %w", err)
		}
		all.TraceEvents = append(all.TraceEvents, ct.TraceEvents...)
		all.Dropped += ct.Dropped
	}
	return all, nil
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceHTTP is the traced run: an untraced closed half against a plain
// rooflined, then a traced closed half against rooflined -debug with
// the benchmark's own spans on. Per-layer metrics come from the traced
// half; the overhead ratio compares the two halves' throughput.
func traceHTTP(o *outcome, cfg runConfig, spec *httpSpec, in *inputs, bin string, warmup int64) error {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	plain, err := bringUp(o, bin, false, spec, in, warmup)
	if err != nil {
		return err
	}
	u, err := plain.closedPhase(o, spec, in, "untraced", half)
	plain.shutdown(o)
	if err != nil {
		return err
	}

	s, err := bringUp(o, bin, true, spec, in, warmup)
	if err != nil {
		return err
	}
	defer s.shutdown(o)
	if _, err := s.t.get("/debug/trace?reset=1"); err != nil { // drop the warm-up's spans
		return err
	}
	mallocs0, _, err := s.t.runtimeStats()
	if err != nil {
		return err
	}
	cpu0, _, err := s.t.procStatus()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	s.l.tracer = trace.New(trace.Config{Capacity: 1 << 16})
	drain := startDrain(s.t)
	tr, err := s.closedPhase(o, spec, in, "traced", half)
	spans, derr := drain.finish()
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	self1 := selfCPU()
	cpu1, _, err := s.t.procStatus()
	if err != nil {
		return err
	}
	mallocs1, gcFraction, err := s.t.runtimeStats()
	if err != nil {
		return err
	}
	if spans.Dropped > 0 {
		o.fail("traced: rooflined's span ring dropped %d spans", spans.Dropped)
	}

	n := float64(tr.ok())
	var handler []float64
	byCache := map[string][]float64{}
	for _, ev := range spans.TraceEvents {
		if ev.Name == spec.span {
			handler = append(handler, ev.Dur)
			src, _ := ev.Args["cache"].(string)
			byCache[src] = append(byCache[src], ev.Dur)
		}
	}
	rtt := make([]float64, len(tr.lat))
	for i, d := range tr.lat {
		rtt[i] = us(d)
	}
	o.values["bench.cpu_us_per_req"] = (self1 - self0) / n * 1e6
	o.values["sut.cpu_us_per_req"] = (cpu1 - cpu0) / n * 1e6
	o.values["sut.allocs_per_req"] = (mallocs1 - mallocs0) / n
	o.values["sut.gc_cpu_share"] = gcFraction
	o.values["server.cache_hit_ratio"] = tr.hitRatio()
	o.values["serve.us_per_req"] = mean(handler)
	o.values["dispatch.us_per_req"] = mean(rtt) - mean(handler)
	plainRates, _, err := u.windows()
	if err != nil {
		return err
	}
	tracedRates, _, err := tr.windows()
	if err != nil {
		return err
	}
	o.values["trace.overhead_ratio"] = p90.of(plainRates) / p90.of(tracedRates)

	o.diag["server.spans"] = float64(len(handler))
	o.diag["traced.requests"] = n
	for _, src := range sortedKeys(byCache) {
		o.diag["server.handler_"+src+"_us"] = median(byCache[src])
		o.diag["server.handler_"+src+"_spans"] = float64(len(byCache[src]))
	}
	benchLayers(o, s.l.tracer)

	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-s%d", cfg.workload, cfg.seed))
	if err := writeJSON(base+".server-trace.json", spans); err != nil {
		return err
	}
	return writeChrome(base+".bench-trace.json", s.l.tracer)
}

// benchLayers reduces the benchmark's own request spans to median
// durations per layer: the round trip to the response headers, the body
// read, and the client's self time (request span minus its children).
// The span ring keeps the last 2^16 spans, so these cover the end of
// the traced phase.
func benchLayers(o *outcome, tr *trace.Tracer) {
	type req struct{ total, children time.Duration }
	byTrack := map[uint64]*req{}
	layer := map[string][]float64{}
	for _, ev := range tr.Events() {
		r := byTrack[ev.Track]
		if r == nil {
			r = &req{}
			byTrack[ev.Track] = r
		}
		if ev.Name == "bench.request" {
			r.total = ev.Dur
			continue
		}
		r.children += ev.Dur
		layer[ev.Name] = append(layer[ev.Name], us(ev.Dur))
	}
	for _, r := range byTrack {
		if r.total > 0 {
			layer["bench.request_self"] = append(layer["bench.request_self"], us(r.total-r.children))
		}
	}
	for name, xs := range layer {
		o.diag[name+"_us"] = median(xs)
	}
	o.diag["bench.spans_dropped"] = float64(tr.Dropped())
}
