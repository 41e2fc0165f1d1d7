package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvalBatchMatchesEval is the endpoint's ground-truth check: every
// row of a batch response must equal — field for field — the body
// /v1/eval returns for the same (machine, precision, work, intensity)
// point, and a batch of one is exactly the /v1/eval result object.
func TestEvalBatchMatchesEval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/evalbatch",
		`{"machine":"gtx580","precision":"double","work":[1e9,2e9,1e9],"intensities":[0.5,4,1000]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out evalBatchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Machine != "gtx580" || out.Precision != "double" || out.Count != 3 || len(out.Results) != 3 {
		t.Fatalf("batch envelope wrong: machine=%q precision=%q count=%d len=%d",
			out.Machine, out.Precision, out.Count, len(out.Results))
	}
	for i, point := range []struct{ work, intensity float64 }{
		{1e9, 0.5}, {2e9, 4}, {1e9, 1000},
	} {
		_, single := post(t, ts.URL+"/v1/eval",
			fmt.Sprintf(`{"machine":"gtx580","precision":"double","work":%g,"intensity":%g}`,
				point.work, point.intensity))
		var want evalResponse
		if err := json.Unmarshal([]byte(single), &want); err != nil {
			t.Fatal(err)
		}
		if out.Results[i] != want {
			t.Errorf("batch row %d differs from /v1/eval:\n batch: %+v\n eval:  %+v",
				i, out.Results[i], want)
		}
	}
}

// TestEvalBatchOfOneBodyMatchesEval: a single-point batch's result
// object, re-marshalled alone, is byte-identical to the /v1/eval body —
// the two endpoints share one response schema, not merely similar ones.
func TestEvalBatchOfOneBodyMatchesEval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, single := post(t, ts.URL+"/v1/eval",
		`{"machine":"fermi","precision":"single","work":1e9,"intensity":2}`)
	_, batch := post(t, ts.URL+"/v1/evalbatch",
		`{"machine":"fermi","precision":"single","intensities":[2]}`)
	var out evalBatchResponse
	if err := json.Unmarshal([]byte(batch), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(out.Results))
	}
	data, err := json.MarshalIndent(out.Results[0], "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data)+"\n" != single {
		t.Errorf("batch-of-1 row re-marshalled differs from /v1/eval body:\n%s\nvs\n%s", data, single)
	}
}

// TestEvalBatchGolden pins the exact serialized shape of a small batch
// response, so accidental schema drift (field renames, ordering, the
// count envelope) fails loudly rather than surfacing in clients.
func TestEvalBatchGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/evalbatch",
		`{"machine":"gtx580","intensities":[0.001]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{
		"\"machine\": \"gtx580\"",
		"\"precision\": \"double\"",
		"\"count\": 1",
		"\"results\": [",
		"\"work\": 1000000000,",
		"\"intensity\": 0.001,",
		"\"time_bound\": \"memory-bound\"",
		"\"energy_bound\": \"memory-bound\"",
		"\"capped_power_watts\"",
		"\"edp_joule_seconds\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("batch body missing %q:\n%s", want, body)
		}
	}
	if !strings.HasSuffix(body, "\n") {
		t.Error("batch body missing trailing newline")
	}
}

// TestEvalBatchCacheHit: re-POSTing an identical batch serves the
// cached bytes under the same request hash, and a batch omitting the
// work column hits the cache entry of one spelling the defaults out.
func TestEvalBatchCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"machine":"gtx580","work":[1e9,1e9],"intensities":[1,8]}`
	resp1, body1 := post(t, ts.URL+"/v1/evalbatch", req)
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Errorf("first batch X-Cache = %q, want miss", resp1.Header.Get("X-Cache"))
	}
	resp2, body2 := post(t, ts.URL+"/v1/evalbatch", req)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second batch X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if body2 != body1 {
		t.Error("cached batch body differs from computed body")
	}
	if resp1.Header.Get("X-Request-Hash") != resp2.Header.Get("X-Request-Hash") {
		t.Error("batch request hash unstable across identical requests")
	}
	// Omitted work column → same canonical hash as explicit defaults.
	resp3, body3 := post(t, ts.URL+"/v1/evalbatch", `{"machine":"gtx580","intensities":[1,8]}`)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Errorf("default-work batch X-Cache = %q, want hit (canonical hashing)", resp3.Header.Get("X-Cache"))
	}
	if body3 != body1 {
		t.Error("default-work batch body differs from explicit-work body")
	}
	if got := s.reg.Counter("evalbatch_computes_total").Value(); got != 1 {
		t.Errorf("evalbatch_computes_total = %d, want 1", got)
	}
}

// TestEvalBatchCoalescing64: 64 concurrent identical batches trigger
// exactly one evaluation — a gated stub holds the flight open until all
// requests are in — and every response is byte-identical. Mirrors
// TestCampaignCoalescing64 for the batch endpoint.
func TestEvalBatchCoalescing64(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int64
	gate := make(chan struct{})
	real := s.batchEval
	s.batchEval = func(q evalBatchRequest) ([]byte, error) {
		runs.Add(1)
		<-gate
		return real(q)
	}

	const req = `{"machine":"gtx580","intensities":[0.25,1,4,16]}`
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
			resp, err := http.Post(ts.URL+"/v1/evalbatch", "application/json", strings.NewReader(req))
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
	started.Wait()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("batch evaluated %d times for 64 identical requests, want exactly 1", got)
	}
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
	if got := s.reg.Counter("requests_evalbatch_total").Value(); got != n {
		t.Errorf("requests_evalbatch_total = %d, want %d", got, n)
	}
}

// TestEvalBatchRejectsBadRequests covers the 4xx surface: malformed
// bodies, unknown machines/precisions, empty and oversized batches,
// ragged columns, and non-positive points.
func TestEvalBatchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchPoints: 8})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{machine:`, "bad request body"},
		{"unknown field", `{"machina":"gtx580","intensities":[1]}`, "unknown field"},
		{"trailing garbage", `{"machine":"gtx580","intensities":[1]} extra`, "bad request body"},
		{"unknown machine", `{"machine":"cray1","intensities":[1]}`, "unknown machine"},
		{"unknown precision", `{"machine":"gtx580","precision":"half","intensities":[1]}`, "unknown precision"},
		{"empty batch", `{"machine":"gtx580","intensities":[]}`, "at least one intensity"},
		{"missing intensities", `{"machine":"gtx580"}`, "at least one intensity"},
		{"oversized batch", `{"machine":"gtx580","intensities":[1,2,3,4,5,6,7,8,9]}`, "server's limit"},
		{"ragged work column", `{"machine":"gtx580","work":[1e9],"intensities":[1,2]}`, "work has 1 entries but intensities has 2"},
		{"zero intensity", `{"machine":"gtx580","intensities":[1,0]}`, "intensities[1] must be positive"},
		{"negative work", `{"machine":"gtx580","work":[1e9,-1],"intensities":[1,2]}`, "work[1] must be positive"},
		{"overflowing number", `{"machine":"gtx580","intensities":[1e999]}`, "bad request body"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/evalbatch", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, c.wantErr) {
				t.Errorf("error body %q missing %q", body, c.wantErr)
			}
		})
	}
}

// TestEvalBatchRejectsNonFinite covers the programmatic path JSON
// cannot express: NaN/Inf entries must fail validation, not poison
// the cache or the hash.
func TestEvalBatchRejectsNonFinite(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := evalBatchRequest{Machine: "gtx580", Intensities: []float64{1, v}}
		if err := s.checkEvalBatch(&q); err == nil {
			t.Errorf("intensity %v accepted", v)
		}
		q = evalBatchRequest{Machine: "gtx580", Work: []float64{1e9, v}, Intensities: []float64{1, 2}}
		if err := s.checkEvalBatch(&q); err == nil {
			t.Errorf("work %v accepted", v)
		}
	}
}

// TestCachedBodiesCarryContentLength: a batch_cold-shaped 32-point
// batch (~32 KB, far past net/http's pre-chunking buffer) arrives framed
// by Content-Length, not chunked, on the miss and on the hit.
func TestCachedBodiesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := batchRequestBody(batchColdRequests(1)[0])
	for _, want := range []string{"miss", "hit"} {
		resp, body := post(t, ts.URL+"/v1/evalbatch", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %q", got, want)
		}
		if len(body) < 16<<10 {
			t.Fatalf("body is %d bytes; the test needs one larger than net/http's buffers", len(body))
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: ContentLength = %d, body is %d bytes", want, resp.ContentLength, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: TransferEncoding = %v, want none", want, resp.TransferEncoding)
		}
	}
}
