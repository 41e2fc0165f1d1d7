package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The server benchmarks measure two different things and say so in
// their names:
//
//   - The plain benchmarks drive Server.Handler().ServeHTTP directly
//     with a reused request and a discarding ResponseWriter. That is
//     the request path this package owns — decode, validate, hash,
//     cache, encode, headers — with no TCP, no net/http client, and no
//     connection bookkeeping, so the numbers (and the allocs/op gate)
//     reflect the code being optimized rather than the test harness.
//   - The *HTTP variants and BenchmarkCampaignCoalesced go through a
//     real httptest server and http.Post, round trip included, for
//     continuity with the PR 2 baseline entries in BENCH_server.json.

// benchServer builds a real-engine server plus httptest front end for
// benchmarks (no *testing.T available).
func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(s.Close)
	return s, ts
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// discardWriter is a ResponseWriter that counts the body and nothing
// else, so direct-path benchmarks measure the server, not a recorder.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func newDiscardWriter() *discardWriter {
	return &discardWriter{header: http.Header{}, status: http.StatusOK}
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *discardWriter) WriteHeader(status int) { w.status = status }

// reusableBody is a resettable no-op-Close request body, so the posted
// request allocates nothing per iteration.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// directPoster drives one handler with a reused request and writer: the
// zero-overhead harness for request-path benchmarks.
type directPoster struct {
	h    http.Handler
	req  *http.Request
	rdr  *reusableBody
	body []byte
	w    *discardWriter
}

func newDirectPoster(h http.Handler, path, body string) *directPoster {
	p := &directPoster{h: h, body: []byte(body), w: newDiscardWriter(), rdr: &reusableBody{}}
	p.req = httptest.NewRequest(http.MethodPost, path, nil)
	p.req.Body = p.rdr
	return p
}

// post serves one request, reporting a non-200 status to tb.
func (p *directPoster) post(tb testing.TB) {
	p.rdr.Reset(p.body)
	p.req.ContentLength = int64(len(p.body))
	p.w.status = http.StatusOK
	p.h.ServeHTTP(p.w, p.req)
	if p.w.status != http.StatusOK {
		tb.Fatalf("status %d", p.w.status)
	}
}

const benchEvalBody = `{"machine":"gtx580","precision":"double","work":1e9,"intensity":4}`

const benchEvalBatchBody = `{"machine":"gtx580","precision":"double","intensities":[0.25,0.5,1,2,4,8,16,32]}`

// coldBodies pre-renders 1024 distinct bodies from format, whose one %g
// verb takes base + i·1e-6: four times the default cache's 256 entries,
// so a benchmark cycling through them misses on every request and its
// allocs/op counts the server alone.
func coldBodies(format string, base float64) [][]byte {
	bodies := make([][]byte, 1024)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(format, base+float64(i)*1e-6))
	}
	return bodies
}

// postCold serves b.N requests cycling through bodies and fails the
// benchmark if any of them hit the cache.
func postCold(b *testing.B, s *Server, path string, bodies [][]byte) {
	p := newDirectPoster(s.Handler(), path, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.body = bodies[i%len(bodies)]
		p.post(b)
	}
	b.StopTimer()
	if hits := s.reg.Counter("cache_hits_total").Value(); hits != 0 {
		b.Fatalf("%d cache hits, want every request to miss", hits)
	}
}

// BenchmarkServerEvalCold measures the direct request path with a cache
// miss on every iteration: decode, validate, hash, model evaluation,
// encode.
func BenchmarkServerEvalCold(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	postCold(b, s, "/v1/eval",
		coldBodies(`{"machine":"gtx580","precision":"double","work":1e9,"intensity":%g}`, 1))
}

// BenchmarkServerEvalWarm measures the direct cache-hit path: identical
// request every iteration, so after the first the model is never
// re-evaluated. This is the allocs/op-gated benchmark: the warm path
// must stay near-zero-allocation.
func BenchmarkServerEvalWarm(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	p := newDirectPoster(s.Handler(), "/v1/eval", benchEvalBody)
	p.post(b) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.post(b)
	}
}

// BenchmarkServerEvalWarmParallel hammers the warm path from all procs
// at once: the contention benchmark for the sharded cache and atomic
// metrics (one hot key, so every hit takes the same shard lock: the
// worst case for a lock-guarded cache).
func BenchmarkServerEvalWarmParallel(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	prime := newDirectPoster(s.Handler(), "/v1/eval", benchEvalBody)
	prime.post(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := newDirectPoster(s.Handler(), "/v1/eval", benchEvalBody)
		for pb.Next() {
			p.post(b)
		}
	})
}

// BenchmarkServerEvalBatchCold measures the direct batch path with a
// miss per iteration: decode with pooled columns, columnar evaluation,
// batch encode.
func BenchmarkServerEvalBatchCold(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	postCold(b, s, "/v1/evalbatch",
		coldBodies(`{"machine":"gtx580","precision":"double","intensities":[0.25,0.5,1,2,4,8,16,%g]}`, 32))
}

// batch32ColdBodies pre-renders the bodies BenchmarkServerEvalBatch32Cold
// cycles through: 1024 distinct batch_cold-shaped batches, four times
// the default cache's 256 entries, so every request misses.
func batch32ColdBodies() [][]byte {
	qs := batchColdRequests(1024)
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = []byte(batchRequestBody(q))
	}
	return bodies
}

// BenchmarkServerEvalBatch32Cold measures the direct batch path on the
// benchmark's batch_cold shape: 32 distinct points per request, work in
// [0.5, 1.5] Gflop, every request a miss. Bodies are pre-rendered, so
// allocs/op counts the server alone.
func BenchmarkServerEvalBatch32Cold(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	postCold(b, s, "/v1/evalbatch", batch32ColdBodies())
}

// BenchmarkRequestDecode measures the decode stage alone, through the
// hand-rolled decoder and through stdlibDecode, the json.Decoder
// pipeline it replaced and is fuzzed against, on the bodies the cold
// benchmarks post: the measurement decode.go is kept on.
func BenchmarkRequestDecode(b *testing.B) {
	eval := coldBodies(`{"machine":"gtx580","precision":"double","work":1e9,"intensity":%g}`, 1)
	batch32 := batch32ColdBodies()
	sc := &batchScratch{}
	for _, c := range []struct {
		name   string
		bodies [][]byte
		decode func([]byte) error
	}{
		{"eval/decoder", eval, func(body []byte) error {
			var q evalRequest
			return decodeEvalRequest(body, &q)
		}},
		{"eval/stdlib", eval, func(body []byte) error {
			var q evalRequest
			return stdlibDecode(body, &q)
		}},
		{"batch32/decoder", batch32, func(body []byte) error {
			var q evalBatchRequest
			return decodeEvalBatchRequest(body, &q, sc)
		}},
		{"batch32/stdlib", batch32, func(body []byte) error {
			var q evalBatchRequest
			return stdlibDecode(body, &q)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(c.bodies[i%len(c.bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateBatch32 measures the evaluate-and-render stage alone
// on batch_cold-shaped batches: columnar model evaluation plus the
// response body, no HTTP, decode, hash or cache.
func BenchmarkEvaluateBatch32(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	qs := batchColdRequests(256)
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.render(sc, qs[i%len(qs)], true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch32MarshalIndent prices the stdlib alternative
// on the same batches: the scalar oracle fills evalResponse structs and
// json.MarshalIndent encodes them.
func BenchmarkEvaluateBatch32MarshalIndent(b *testing.B) {
	qs := batchColdRequests(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := oracleEvalBatch(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := json.MarshalIndent(&r, "", "  "); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerEvalBatchWarm measures the direct batch cache-hit
// path: one canonical hash over the whole batch, one cached body.
func BenchmarkServerEvalBatchWarm(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	p := newDirectPoster(s.Handler(), "/v1/evalbatch", benchEvalBatchBody)
	p.post(b) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.post(b)
	}
}

// BenchmarkServerEvalWarmHTTP measures the warm hit through a real
// httptest server and http.Post — client, TCP, and net/http connection
// bookkeeping included — for continuity with the PR 2 baseline.
func BenchmarkServerEvalWarmHTTP(b *testing.B) {
	_, ts := benchServer(b, Config{})
	benchPost(b, ts.URL+"/v1/eval", benchEvalBody) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/eval", benchEvalBody)
	}
}

// BenchmarkCampaignCoalesced measures 8 concurrent identical campaign
// requests per iteration. The per-iteration seed defeats the cache so
// every iteration exercises coalescing around one real engine run.
func BenchmarkCampaignCoalesced(b *testing.B) {
	_, ts := benchServer(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(
			`{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":2,"volume_bytes":1048576,"seed":%d}`,
			i+1)
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				benchPost(b, ts.URL+"/v1/campaign", body)
			}()
		}
		wg.Wait()
	}
}
