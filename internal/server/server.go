// Package server implements rooflined, a long-lived HTTP/JSON service
// over the energy-roofline model and the measurement-campaign engine.
// It turns the one-shot CLIs into the form the model is actually
// consumed in — repeated what-if queries over fixed machine
// coefficients — and exploits the engine's determinism (fixed config →
// byte-identical output at any worker count, see internal/campaign) in
// two ways:
//
//   - Responses are content-addressable. A canonical request hash
//     keys one store: an in-memory LRU cache with size bounds and the
//     table of in-progress computations, striped together over 16
//     locked stripes. The key and the cache are internal/rescache,
//     the core the fleet simulator shares.
//   - Every POST endpoint answers through one miss path (serve): a
//     cache hit serves the exact bytes a fresh computation would
//     produce; concurrent identical misses coalesce into one flight,
//     whose leader computes and caches the body and whose waiters share
//     it. Each key is computed once until it is evicted.
//
// Engine executions draw workers from one global parallel.Budget shared
// across requests, so the machine is never oversubscribed: identical
// concurrent campaigns share one execution, and distinct ones queue for
// the budget. Request/latency/cache counters are exposed on
// GET /metrics through internal/metrics.
//
// Endpoints:
//
//	GET  /healthz      liveness probe
//	GET  /v1/machines  the platform catalog with derived balance points
//	GET  /v1/models    the registered EnergyModels (see docs/MODELS.md)
//	POST /v1/eval      single roofline/energy model query
//	POST /v1/evalbatch columnar batch model query
//	POST /v1/campaign  full tune→sweep→fit campaign
//	GET  /metrics      plain-text operational counters
//
// The three POST endpoints accept an optional "model" field selecting
// the EnergyModel ("analytic" or "blackbox"); omitted means analytic
// and the response bytes are identical to the pre-model surface.
//
// With Config.Debug set, the server additionally records every request
// (and the campaign engine's internal phases) in an internal/trace ring
// buffer and serves:
//
//	GET  /debug/trace   the span buffer as Chrome trace_event JSON
//	GET  /debug/pprof/  the standard net/http/pprof profile handlers
//
// Span durations also feed per-phase latency histograms on GET /metrics
// (metric names span_<name> with dots mapped to underscores). See
// docs/OBSERVABILITY.md for the runbook.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/strictjson"
	"repro/internal/trace"
)

// Config tunes one Server. The zero value of any field falls back to
// the DefaultConfig value for that field.
type Config struct {
	// Workers is the global engine worker budget shared across all
	// concurrent campaign requests (parallel.Workers semantics: < 1
	// means one worker per CPU).
	Workers int
	// CacheEntries bounds the result cache by entry count. Both bounds
	// split exactly over the cache's 16 stripes.
	CacheEntries int
	// CacheBytes bounds the result cache by total body bytes.
	CacheBytes int64
	// RequestTimeout bounds one engine execution; the run is cancelled
	// between kernel executions when it expires.
	RequestTimeout time.Duration
	// Debug enables the observability surface: per-request span tracing
	// into a bounded ring buffer of trace.DefaultCapacity spans (oldest
	// dropped first), GET /debug/trace, the net/http/pprof handlers
	// under /debug/pprof/, and span_* latency histograms on GET
	// /metrics. Off by default; when off, tracing costs nothing.
	Debug bool
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Workers:        0, // one per CPU
		CacheEntries:   256,
		CacheBytes:     64 << 20,
		RequestTimeout: 2 * time.Minute,
	}
}

// The request limits are fixed: they reject oversized input from
// outside the program before any work is done.
const (
	// maxPoints caps a campaign request's intensity grid
	// (service-level, stricter than the campaign.Validate allocation
	// guard).
	maxPoints = 4096
	// maxReps caps a campaign request's repetitions per point.
	maxReps = 4096
	// maxBatchPoints caps the number of points in one /v1/evalbatch
	// request.
	maxBatchPoints = 4096
	// maxBodyBytes caps a request body.
	maxBodyBytes = 1 << 20
)

// engineFunc is the campaign engine the server drives; tests substitute
// a counting stub to assert coalescing and cache behaviour.
type engineFunc func(ctx context.Context, cfg campaign.Config, workers int) (*campaign.Result, error)

// Server is the rooflined service state. Create with New; it is safe
// for concurrent use by the HTTP stack.
type Server struct {
	cfg    Config
	budget *parallel.Budget
	store  *store
	reg    *metrics.Registry
	engine engineFunc
	// evaluate computes one /v1/eval or /v1/evalbatch body; tests
	// substitute a gated stub to hold a flight open, like engine for
	// campaigns.
	evaluate func(sc *batchScratch, q evalBatchRequest, batch bool) ([]byte, error)
	mux      *http.ServeMux
	tracer   *trace.Tracer // nil unless cfg.Debug

	// entries holds the /v1/eval and /v1/evalbatch render templates.
	entries renderEntries

	// Hot-path metric handles, hoisted out of the registry once at
	// construction so per-request bookkeeping is a direct atomic
	// increment — no name lookup of any kind on the request path.
	mRequestsEval      *metrics.Counter
	mRequestsEvalbatch *metrics.Counter
	mRequestsCampaign  *metrics.Counter
	mCacheHits         *metrics.Counter
	mCacheMisses       *metrics.Counter
	mEvalComputes      *metrics.Counter
	mEvalbatchComputes *metrics.Counter
	mEngineRuns        *metrics.Counter
	mCoalesced         *metrics.Counter
	mLatEval           *metrics.Latency
	mLatEvalbatch      *metrics.Latency
	mLatCampaign       *metrics.Latency

	baseCtx context.Context
	cancel  context.CancelFunc
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = def.CacheEntries
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		budget:  parallel.NewBudget(cfg.Workers),
		store:   newStore(stripes, cfg.CacheEntries, cfg.CacheBytes),
		reg:     metrics.NewRegistry(),
		engine:  campaign.RunParallel,
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.evaluate = s.render
	s.mRequestsEval = s.reg.Counter("requests_eval_total")
	s.mRequestsEvalbatch = s.reg.Counter("requests_evalbatch_total")
	s.mRequestsCampaign = s.reg.Counter("requests_campaign_total")
	s.mCacheHits = s.reg.Counter("cache_hits_total")
	s.mCacheMisses = s.reg.Counter("cache_misses_total")
	s.mEvalComputes = s.reg.Counter("eval_computes_total")
	s.mEvalbatchComputes = s.reg.Counter("evalbatch_computes_total")
	s.mEngineRuns = s.reg.Counter("engine_runs_total")
	s.mCoalesced = s.reg.Counter("coalesced_total")
	s.mLatEval = s.reg.Latency("latency_eval")
	s.mLatEvalbatch = s.reg.Latency("latency_evalbatch")
	s.mLatCampaign = s.reg.Latency("latency_campaign")
	if cfg.Debug {
		s.tracer = trace.New(trace.Config{
			Observer: func(name string, d time.Duration) {
				s.reg.Latency("span_" + strings.ReplaceAll(name, ".", "_")).Observe(d)
			},
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("POST /v1/evalbatch", s.handleEvalBatch)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Debug {
		mux.HandleFunc("GET /debug/trace", s.handleTrace)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Tracer returns the server's span tracer, nil unless Config.Debug was
// set. The rooflined binary uses it to dump a Chrome trace at shutdown.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close aborts in-flight engine executions. Graceful shutdown first
// drains the HTTP server (handlers block until their campaigns finish),
// then calls Close to release anything still running.
func (s *Server) Close() { s.cancel() }

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// httpError is a handler failure with a status code.
type httpError struct {
	status int
	msg    string
}

// Error implements the error interface.
func (e *httpError) Error() string { return e.msg }

// badRequest builds a 400 error.
func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON marshals v with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError reports err as a JSON error body, mapping *httpError
// status through and defaulting anything else to 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	} else if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	}
	s.reg.Counter("http_errors_total").Inc()
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeCached serves a response body produced by serve, labelling its
// provenance in X-Cache (hit, miss, or coalesced) and framing it with
// Content-Length, so bodies larger than net/http's pre-chunking buffer
// are not sent chunked. The four header values share one slice and the
// two computed ones one string: two allocations in all, the header
// map's keys being canonical already.
func writeCached(w http.ResponseWriter, key uint64, source string, body []byte) {
	var buf [16 + 20]byte
	hashLen := len(appendHash(buf[:0], key))
	computed := string(strconv.AppendInt(buf[:hashLen], int64(len(body)), 10))
	vals := []string{"application/json", source, computed[:hashLen], computed[hashLen:]}
	h := w.Header()
	h["Content-Type"] = vals[0:1:1]
	h["X-Cache"] = vals[1:2:2]
	h["X-Request-Hash"] = vals[2:3:3]
	h["Content-Length"] = vals[3:4:4]
	w.Write(body)
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("requests_healthz_total").Inc()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// machineSummary is one GET /v1/machines catalog row.
type machineSummary struct {
	Key             string  `json:"key"`
	Name            string  `json:"name"`
	Bandwidth       float64 `json:"bandwidth_bytes_per_s"`
	PeakFlopsSingle float64 `json:"peak_flops_single"`
	PeakFlopsDouble float64 `json:"peak_flops_double"`
	BalanceTime     float64 `json:"balance_time_double"`
	BalanceEnergy   float64 `json:"balance_energy_double"`
	HalfEfficiency  float64 `json:"half_efficiency_intensity_double"`
	RaceToHalt      bool    `json:"race_to_halt_effective_double"`
}

// handleMachines implements GET /v1/machines: the catalog with derived
// double-precision balance points, sorted by key for stable output.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("requests_machines_total").Inc()
	catalog := machine.Catalog()
	keys := make([]string, 0, len(catalog))
	for k := range catalog {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]machineSummary, 0, len(keys))
	for _, k := range keys {
		m := catalog[k]
		p := core.FromMachine(m, machine.Double)
		out = append(out, machineSummary{
			Key:             k,
			Name:            m.Name,
			Bandwidth:       m.Bandwidth,
			PeakFlopsSingle: m.SP.PeakFlops,
			PeakFlopsDouble: m.DP.PeakFlops,
			BalanceTime:     p.BalanceTime(),
			BalanceEnergy:   p.BalanceEnergy(),
			HalfEfficiency:  p.HalfEfficiencyIntensity(),
			RaceToHalt:      p.RaceToHaltEffective(),
		})
	}
	body, err := json.MarshalIndent(map[string]any{"machines": out}, "", "  ")
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// evalRequest is the POST /v1/eval body: one (machine, precision,
// kernel) model query.
type evalRequest struct {
	Machine   string  `json:"machine"`
	Precision string  `json:"precision"`
	Work      float64 `json:"work,omitempty"`
	Intensity float64 `json:"intensity"`
	// Model selects the EnergyModel predicting the cost fields (see
	// GET /v1/models); empty means the default analytic model and
	// keeps the response byte-identical to the pre-model surface.
	Model string `json:"model,omitempty"`
}

// parsePrecision maps the wire precision names; an unknown one is a
// 400 carrying machine.ParsePrecision's text.
func parsePrecision(s string) (machine.Precision, error) {
	p, err := machine.ParsePrecision(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return p, nil
}

// checkEval validates an eval request, filling defaults in place.
func checkEval(q *evalRequest) error {
	if _, ok := catalog()[q.Machine]; !ok {
		return badRequest("unknown machine %q", q.Machine)
	}
	if _, err := parsePrecision(q.Precision); err != nil {
		return err
	}
	if !model.Known(q.Model) {
		return badRequest("unknown model %q (see GET /v1/models)", q.Model)
	}
	if q.Work == 0 {
		q.Work = 1e9
	}
	for i, v := range [2]float64{q.Work, q.Intensity} {
		name := [2]string{"work", "intensity"}[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("%s must be finite", name)
		}
		if v <= 0 {
			return badRequest("%s must be positive", name)
		}
	}
	return nil
}

// handleEval implements POST /v1/eval. The warm path — pooled body
// read, hand-rolled decode, canonical hash, cache hit under one stripe
// lock — runs with near-zero allocations.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.mRequestsEval.Inc()
	start := time.Now()
	defer func() { s.mLatEval.Observe(time.Since(start)) }()
	_, sp := s.tracer.StartRoot(r.Context(), "http.eval")
	defer sp.End()

	var q evalRequest
	bp, err := readBody(r, maxBodyBytes)
	if err == nil {
		err = decodeEvalRequest(*bp, &q)
		releaseBody(bp)
	}
	if err != nil {
		sp.Tag("error", "bad_body")
		s.writeError(w, badRequest("bad request body: %v", err))
		return
	}
	if err := checkEval(&q); err != nil {
		sp.Tag("error", "invalid")
		s.writeError(w, err)
		return
	}
	s.serve(w, r, sp, hashEval(q), "eval", func() ([]byte, error) {
		body, err := s.evaluatePoint(q)
		if err == nil {
			s.mEvalComputes.Inc()
		}
		return body, err
	})
}

// checkCampaign validates a campaign request against the engine's own
// rules (campaign.Validate: unknown machines, NaN/Inf fields, inverted
// ranges, allocation-scale grids) and the service-level cost caps.
func (s *Server) checkCampaign(cfg campaign.Config) error {
	if err := cfg.Validate(); err != nil {
		return badRequest("%v", err)
	}
	if cfg.Points > maxPoints {
		return badRequest("campaign: %d grid points exceed this server's limit of %d", cfg.Points, maxPoints)
	}
	if cfg.Reps > maxReps {
		return badRequest("campaign: %d reps exceed this server's limit of %d", cfg.Reps, maxReps)
	}
	return nil
}

// handleCampaign implements POST /v1/campaign: one engine execution
// per key on a budget-bounded worker pool. The response body is the
// campaign Result JSON — byte-identical whether it came from the
// engine, the cache, or a coalesced flight.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.mRequestsCampaign.Inc()
	start := time.Now()
	defer func() { s.mLatCampaign.Observe(time.Since(start)) }()
	_, sp := s.tracer.StartRoot(r.Context(), "http.campaign")
	defer sp.End()

	var cfg campaign.Config
	if err := decodeBody(r, &cfg); err != nil {
		sp.Tag("error", "bad_body")
		s.writeError(w, err)
		return
	}
	if err := s.checkCampaign(cfg); err != nil {
		sp.Tag("error", "invalid")
		s.writeError(w, err)
		return
	}
	// The flight leader runs the engine under the server's base context
	// (plus the request timeout), not the leader's request context: the
	// execution is shared, so one client disconnecting must not cancel
	// the run for its co-waiters.
	s.serve(w, r, sp, hashCampaign(cfg), "engine", func() ([]byte, error) {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		// The engine context carries the server tracer so campaign,
		// sweep, and pool spans from the shared execution land in the
		// same ring buffer as the request spans.
		ctx = trace.WithTracer(ctx, s.tracer)
		granted, release, err := s.budget.Acquire(ctx, s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		defer release()
		s.mEngineRuns.Inc()
		sp.Tag("engine_run", true).Tag("workers", granted)
		res, err := s.engine(ctx, cfg, granted)
		if err != nil {
			return nil, err
		}
		data, err := res.ToJSON()
		if err != nil {
			return nil, err
		}
		return append(data, '\n'), nil
	})
}

// serve is the one miss path of the POST endpoints: it answers a
// validated request for key with the cached body (X-Cache hit) or with
// the outcome of key's flight — led by this request, which runs compute
// (miss), or joined and shared (coalesced). A waiter whose request ends
// stops waiting without cancelling the flight. errTag labels a failure
// on the request span sp.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, sp *trace.Span, key uint64, errTag string, compute func() ([]byte, error)) {
	body, f, lead := s.store.lookup(key)
	if f == nil {
		s.mCacheHits.Inc()
		sp.Tag("cache", "hit")
		writeCached(w, key, "hit", body)
		return
	}
	s.mCacheMisses.Inc()
	var err error
	if lead {
		body, err = compute()
		s.store.finish(key, f, body, err)
	} else {
		body, err = f.wait(r.Context())
	}
	// Each tag is a constant: a string variable passed as any allocates.
	switch {
	case err != nil:
		sp.Tag("error", errTag)
		s.writeError(w, err)
	case lead:
		sp.Tag("cache", "miss")
		writeCached(w, key, "miss", body)
	default:
		s.mCoalesced.Inc()
		sp.Tag("cache", "coalesced")
		writeCached(w, key, "coalesced", body)
	}
}

// handleMetrics implements GET /metrics. Cache and budget levels are
// copied into gauges at scrape time so the page reflects the instant it
// was rendered.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("requests_metrics_total").Inc()
	st := s.store.stats()
	s.reg.Gauge("cache_entries").Set(int64(st.entries))
	s.reg.Gauge("cache_bytes").Set(st.bytes)
	s.reg.Gauge("cache_evictions").Set(int64(st.Evictions))
	s.reg.Gauge("workers_budget").Set(int64(s.budget.Cap()))
	s.reg.Gauge("workers_in_use").Set(int64(s.budget.InUse()))
	s.reg.Gauge("flights_in_flight").Set(int64(st.flights))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Render())
}

// handleTrace implements GET /debug/trace (Debug only): the current
// span ring buffer as Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. ?reset=1 drains the
// buffer: the dump and the clear happen under one lock, so successive
// captures neither overlap nor lose the spans recorded between them.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("requests_debug_trace_total").Inc()
	w.Header().Set("Content-Type", "application/json")
	var err error
	if r.URL.Query().Get("reset") == "1" {
		err = s.tracer.Drain().WriteChrome(w)
	} else {
		err = s.tracer.WriteChrome(w)
	}
	if err != nil {
		s.writeError(w, err)
	}
}

// decodeBody strictly decodes one JSON value from the request body,
// rejecting unknown fields, trailing garbage, and bodies over
// maxBodyBytes.
func decodeBody(r *http.Request, v any) error {
	bp, err := readBody(r, maxBodyBytes)
	if err == nil {
		err = strictjson.Unmarshal(*bp, v)
		releaseBody(bp)
	}
	if err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}
