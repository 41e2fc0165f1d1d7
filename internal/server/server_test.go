package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// newTestServer returns a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// post sends a JSON body and returns the response with its body read.
func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestMachinesCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Machines []machineSummary `json:"machines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Machines) != len(machine.Catalog()) {
		t.Fatalf("got %d machines, want %d", len(out.Machines), len(machine.Catalog()))
	}
	for i := 1; i < len(out.Machines); i++ {
		if out.Machines[i-1].Key >= out.Machines[i].Key {
			t.Error("machines not sorted by key")
		}
	}
	var gtx *machineSummary
	for i := range out.Machines {
		if out.Machines[i].Key == "gtx580" {
			gtx = &out.Machines[i]
		}
	}
	if gtx == nil {
		t.Fatal("gtx580 missing from catalog response")
	}
	if gtx.Bandwidth != 192.4e9 || !gtx.RaceToHalt {
		t.Errorf("gtx580 summary wrong: %+v", gtx)
	}
}

func TestEvalMatchesModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/eval",
		`{"machine":"gtx580","precision":"double","work":1e9,"intensity":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out evalResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	p := core.FromMachine(machine.GTX580(), machine.Double)
	k := core.KernelAt(1e9, 4)
	for name, pair := range map[string][2]float64{
		"time":    {out.Time, p.Time(k)},
		"energy":  {out.Energy, p.Energy(k)},
		"power":   {out.AvgPower, p.AveragePower(k)},
		"Bτ":      {out.BalanceTime, p.BalanceTime()},
		"B̂ε(y½)": {out.HalfEfficiency, p.HalfEfficiencyIntensity()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
	if out.TimeBound != "compute-bound" {
		t.Errorf("I=4 > Bτ=1.03 should be compute-bound, got %q", out.TimeBound)
	}

	// Warm path: identical request served from cache, byte-identical.
	resp2, body2 := post(t, ts.URL+"/v1/eval",
		`{"machine":"gtx580","precision":"double","work":1e9,"intensity":4}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second eval X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if body2 != body {
		t.Error("cached eval body differs from computed body")
	}
	if resp.Header.Get("X-Request-Hash") != resp2.Header.Get("X-Request-Hash") {
		t.Error("request hash unstable across identical requests")
	}
}

func TestEvalRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{machine:`, "bad request body"},
		{"unknown field", `{"machina":"gtx580"}`, "unknown field"},
		{"unknown machine", `{"machine":"cray1","intensity":1}`, "unknown machine"},
		{"unknown precision", `{"machine":"gtx580","precision":"half","intensity":1}`, "unknown precision"},
		{"zero intensity", `{"machine":"gtx580","intensity":0}`, "intensity must be positive"},
		{"negative work", `{"machine":"gtx580","work":-1,"intensity":2}`, "work must be positive"},
		{"overflowing number", `{"machine":"gtx580","intensity":1e999}`, "bad request body"},
		{"NaN literal", `{"machine":"gtx580","intensity":NaN}`, "bad request body"},
		{"trailing garbage", `{"machine":"gtx580","intensity":1} extra`, "bad request body"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/eval", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, c.wantErr) {
				t.Errorf("error body %q missing %q", body, c.wantErr)
			}
		})
	}
}

// TestEvalValidationOrder: a body with both numbers invalid gets the
// work error every time — checkEval tests work, then intensity, as
// checkEvalBatch does — not the error of whichever field a map
// iteration reached first.
func TestEvalValidationOrder(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	const body = `{"machine":"gtx580","work":-1,"intensity":-1}`
	for i := 0; i < 100; i++ {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "work must be positive") {
			t.Fatalf("post %d: status %d, body %q; want 400 with the work error", i, w.Code, w.Body.String())
		}
	}
}

// TestEvalRejectsNonFinite covers the programmatic path JSON cannot
// express: NaN/Inf fields must fail validation, not poison the cache.
func TestEvalRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := evalRequest{Machine: "gtx580", Intensity: v}
		if err := checkEval(&q); err == nil {
			t.Errorf("intensity %v accepted", v)
		}
		q = evalRequest{Machine: "gtx580", Work: v, Intensity: 1}
		if err := checkEval(&q); err == nil {
			t.Errorf("work %v accepted", v)
		}
	}
}

func TestCampaignRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	small := `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":1,"volume_bytes":1048576}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{"machines":`, "bad request body"},
		{"no machines", `{}`, "no machines"},
		{"unknown machine", `{"machines":["nope"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":1,"volume_bytes":1048576}`, "unknown machine"},
		{"inverted range", `{"machines":["gtx580"],"lo_intensity":16,"hi_intensity":0.25,"points":5,"reps":1,"volume_bytes":1048576}`, "bad intensity range"},
		{"oversized grid (engine cap)", `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":100000,"reps":1,"volume_bytes":1048576}`, "exceed"},
		{"oversized grid (server cap)", `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":8192,"reps":1,"volume_bytes":1048576}`, "server's limit"},
		{"oversized reps (server cap)", `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":999999,"volume_bytes":1048576}`, "exceed"},
		{"unknown field", `{"machines":["gtx580"],"sed":1}`, "unknown field"},
		{"stray brace", small + `}`, "trailing data"},
		{"stray bracket", small + `]`, "trailing data"},
		{"second value", small + ` {}`, "trailing data"},
		{"body over the limit", small + strings.Repeat(" ", 1<<20), "request body too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/campaign", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, c.wantErr) {
				t.Errorf("error body %q missing %q", body, c.wantErr)
			}
		})
	}
	// NaN/Inf cannot ride in over JSON, but the validation layer the
	// handler uses must reject them for programmatic callers too —
	// through campaign.Validate's non-finite guard.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		cfg := campaign.Default()
		cfg.LoIntensity = v
		if err := s.checkCampaign(cfg); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("LoIntensity=%v: err = %v, want non-finite rejection", v, err)
		}
		cfg = campaign.Default()
		cfg.VolumeBytes = v
		if err := s.checkCampaign(cfg); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("VolumeBytes=%v: err = %v, want non-finite rejection", v, err)
		}
	}
}

// stubEngine counts executions and returns a deterministic result
// without the real engine's cost. gate, when non-nil, delays completion
// so concurrent requests pile onto the flight.
type stubEngine struct {
	runs atomic.Int64
	gate chan struct{}
}

// fn returns the engineFunc for the stub.
func (e *stubEngine) fn(ctx context.Context, cfg campaign.Config, workers int) (*campaign.Result, error) {
	e.runs.Add(1)
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &campaign.Result{Config: cfg, Machines: []campaign.MachineResult{{
		Key: cfg.Machines[0], Name: "stub", Points: cfg.Points,
	}}}, nil
}

const smallCampaign = `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":2,"volume_bytes":1048576,"seed":7}`

// coalesce64 posts body to url from 64 concurrent clients while gate
// holds the computation, then releases it. It requires exactly one
// flight leader (X-Cache miss) and byte-identical bodies, and returns
// the shared body.
func coalesce64(t *testing.T, url, body string, gate chan struct{}) string {
	t.Helper()
	const n = 64
	bodies := make([]string, n)
	sources := make([]string, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = string(data)
			sources[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	// Release the computation only after every client goroutine is
	// launched, so the flight is guaranteed to still be open when most
	// requests arrive; any straggler that misses the flight hits the
	// cache — either way the computation must run exactly once.
	started.Wait()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	var miss, coalesced, hit int
	for _, src := range sources {
		switch src {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++
		default:
			t.Errorf("unexpected X-Cache %q", src)
		}
	}
	if miss != 1 {
		t.Errorf("flight leaders = %d, want exactly 1 (coalesced %d, hit %d)", miss, coalesced, hit)
	}
	return bodies[0]
}

// TestCampaignCoalescing64 is the tentpole acceptance test: 64
// concurrent identical campaign requests trigger exactly one engine
// execution and every response body is byte-identical. A 65th request
// after completion is served from the cache, still without touching the
// engine.
func TestCampaignCoalescing64(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	eng := &stubEngine{gate: make(chan struct{})}
	s.engine = eng.fn

	const n = 64
	shared := coalesce64(t, ts.URL+"/v1/campaign", smallCampaign, eng.gate)
	if got := eng.runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for 64 identical requests, want exactly 1", got)
	}

	// Cache-hit path: one more identical request, engine untouched.
	resp, body := post(t, ts.URL+"/v1/campaign", smallCampaign)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-flight X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if body != shared {
		t.Error("cached body differs from flight body")
	}
	if got := eng.runs.Load(); got != 1 {
		t.Errorf("cache hit invoked the engine (runs = %d)", got)
	}
	// Telemetry agrees: 65 requests, 1 engine run.
	if got := s.reg.Counter("engine_runs_total").Value(); got != 1 {
		t.Errorf("engine_runs_total = %d, want 1", got)
	}
	if got := s.reg.Counter("requests_campaign_total").Value(); got != n+1 {
		t.Errorf("requests_campaign_total = %d, want %d", got, n+1)
	}
}

// TestCampaignDistinctRequestsDoNotCoalesce guards the inverse: two
// configs differing only in seed run the engine twice.
func TestCampaignDistinctRequestsDoNotCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	eng := &stubEngine{}
	s.engine = eng.fn
	post(t, ts.URL+"/v1/campaign", smallCampaign)
	post(t, ts.URL+"/v1/campaign", strings.Replace(smallCampaign, `"seed":7`, `"seed":8`, 1))
	if got := eng.runs.Load(); got != 2 {
		t.Errorf("engine ran %d times for 2 distinct configs, want 2", got)
	}
}

// TestCampaignRealEngineMatchesDirectRun drives the real engine through
// HTTP once and checks the body equals a direct campaign.RunParallel
// call — the determinism guarantee that makes caching sound.
func TestCampaignRealEngineMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real campaign engine")
	}
	_, ts := newTestServer(t, Config{})
	cfgJSON := `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":4,"reps":1,"volume_bytes":1048576,"seed":11}`
	resp, body := post(t, ts.URL+"/v1/campaign", cfgJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	cfg, err := campaign.ParseConfig([]byte(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunParallel(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want)+"\n" {
		t.Error("served campaign body differs from direct engine run")
	}
}

// TestCampaignRequestTimeout: an engine that outlives the request
// timeout is cancelled and reported as 504.
func TestCampaignRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	eng := &stubEngine{gate: make(chan struct{})} // never released
	s.engine = eng.fn
	resp, body := post(t, ts.URL+"/v1/campaign", smallCampaign)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	// The failure was not cached: a retry re-runs the engine.
	close(eng.gate)
	resp, _ = post(t, ts.URL+"/v1/campaign", smallCampaign)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retry after timeout: status = %d", resp.StatusCode)
	}
	if got := eng.runs.Load(); got != 2 {
		t.Errorf("engine runs = %d, want 2 (failed run must not be cached)", got)
	}
}

func TestMetricsPage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/eval", `{"machine":"fermi","intensity":2}`)
	post(t, ts.URL+"/v1/eval", `{"machine":"fermi","intensity":2}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)
	for _, want := range []string{
		"requests_eval_total 2",
		"cache_hits_total 1",
		"cache_misses_total 1",
		"cache_entries 1",
		"workers_budget",
		"latency_eval_count 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// TestMethodNotAllowed: the route table rejects wrong verbs.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/campaign")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/campaign status = %d, want 405", resp.StatusCode)
	}
}

// TestServerSharedWorkerBudget: the worker budget bounds the TOTAL
// engine workers across concurrent distinct campaigns. The first
// campaign takes the whole budget; a second distinct campaign queues
// (its engine must not start) until the first releases, then runs with
// the full budget — bounded concurrency, no starvation, never
// oversubscription.
func TestServerSharedWorkerBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4})
	grants := make(chan int, 2)
	var running atomic.Int64
	var peak atomic.Int64
	release := make(chan struct{})
	s.engine = func(ctx context.Context, cfg campaign.Config, workers int) (*campaign.Result, error) {
		if r := running.Add(int64(workers)); r > peak.Load() {
			peak.Store(r)
		}
		defer running.Add(int64(-workers))
		grants <- workers
		if cfg.Seed == 1 { // only the first campaign is gated
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &campaign.Result{Config: cfg}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for _, seed := range []int{1, 2} {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := strings.Replace(smallCampaign, `"seed":7`, fmt.Sprintf(`"seed":%d`, seed), 1)
			resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(seed)
		if seed == 1 {
			<-grants // campaign 1 is running and holds the budget
		}
	}
	// Campaign 2 must be queued on the budget, not running.
	time.Sleep(50 * time.Millisecond)
	if got := running.Load(); got != 4 {
		t.Errorf("workers in use while campaign 1 holds the budget = %d, want 4", got)
	}
	select {
	case g := <-grants:
		t.Fatalf("campaign 2 started with %d workers while the budget was exhausted", g)
	default:
	}
	close(release)
	g2 := <-grants
	wg.Wait()
	if g2 != 4 {
		t.Errorf("campaign 2 granted %d workers after release, want the full budget of 4", g2)
	}
	if peak.Load() > 4 {
		t.Errorf("peak concurrent workers = %d, exceeding the budget of 4", peak.Load())
	}
	if s.budget.InUse() != 0 {
		t.Errorf("budget tokens leaked: %d in use", s.budget.InUse())
	}
}

// TestMetricsRegistryExposed: the accessor exists for embedding callers.
func TestMetricsRegistryExposed(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if s.Metrics() == nil {
		t.Fatal("nil registry")
	}
	var _ *metrics.Registry = s.Metrics()
}
