// Command loadgen is the BENCH_server.json regression gate for the
// rooflined request path. -bench, which is required, measures the
// pinned direct-path server benchmarks (the same scenarios as go test
// ./internal/server/ -bench) with the testing harness and applies the
// shared trajectory workflow of internal/benchfile: -check fails CI on
// regressions against the newest entry that records each scenario,
// -update appends a new entry. HTTP load against a running rooflined
// is the benchmark module's job: bash bench/run.sh -workload eval_zipf
// (see bench/README.md).
//
// Usage:
//
//	go run ./cmd/loadgen -bench -check         # direct-path regression gate (CI)
//	go run ./cmd/loadgen -bench -update -pr N -note "..."
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchfile"
	"repro/internal/server"
)

// benchScenario is one pinned direct-path benchmark, named identically
// to its go-test twin in internal/server so the trajectory file reads
// the same either way.
type benchScenario struct {
	name string
	fn   func(b *testing.B)
}

// allocCeilings are hard allocs/op limits -check enforces regardless of
// recorded history (allocation counts are deterministic, so a ceiling
// holds on any hardware).
var allocCeilings = map[string]int64{"BenchmarkServerEvalWarm": 10}

// evalBody renders the canonical /v1/eval request body for a kernel.
func evalBody(machineKey, precision string, work, intensity float64) string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(`{"machine":"`)
	b.WriteString(machineKey)
	b.WriteString(`","precision":"`)
	b.WriteString(precision)
	b.WriteString(`","work":`)
	b.WriteString(strconv.FormatFloat(work, 'g', -1, 64))
	b.WriteString(`,"intensity":`)
	b.WriteString(strconv.FormatFloat(intensity, 'g', -1, 64))
	b.WriteString(`}`)
	return b.String()
}

// discardWriter is an http.ResponseWriter that records the status and
// discards the body — the direct-path benchmarks measure the server,
// not a recorder.
type discardWriter struct {
	header http.Header
	status int
}

// Header returns the response header map.
func (w *discardWriter) Header() http.Header { return w.header }

// Write discards the response body.
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// WriteHeader records the response status.
func (w *discardWriter) WriteHeader(status int) { w.status = status }

// directPoster drives one handler with a reused request and writer (the
// zero-overhead harness; see internal/server's bench_test for the
// canonical copy these scenarios mirror).
type directPoster struct {
	h    http.Handler
	req  *http.Request
	body *strings.Reader
	w    *discardWriter
}

// nopCloser adapts the reusable body reader to io.ReadCloser without a
// per-request allocation.
type nopCloser struct{ *strings.Reader }

// Close is a no-op; the body reader is reused across requests.
func (nopCloser) Close() error { return nil }

// newDirectPoster builds a poster for one path.
func newDirectPoster(h http.Handler, path string) *directPoster {
	p := &directPoster{h: h, body: strings.NewReader(""), w: &discardWriter{header: http.Header{}}}
	p.req = httptest.NewRequest(http.MethodPost, path, nil)
	p.req.Body = nopCloser{p.body}
	return p
}

// post serves body once, failing b on a non-200.
func (p *directPoster) post(b *testing.B, body string) {
	p.body.Reset(body)
	p.req.ContentLength = int64(len(body))
	p.w.status = http.StatusOK
	p.h.ServeHTTP(p.w, p.req)
	if p.w.status != http.StatusOK {
		b.Fatalf("status %d", p.w.status)
	}
}

// The pinned bodies match internal/server's bench_test constants.
const (
	warmEvalBody      = `{"machine":"gtx580","precision":"double","work":1e9,"intensity":4}`
	warmEvalBatchBody = `{"machine":"gtx580","precision":"double","intensities":[0.25,0.5,1,2,4,8,16,32]}`
)

// batch32ColdBodies renders the 1024 distinct batch_cold-shaped bodies
// BenchmarkServerEvalBatch32Cold cycles through — 32 points each, work
// uniform in [0.5, 1.5] Gflop, intensity log-uniform in [0.5, 8] — the
// same stream internal/server's bench_test draws. 1024 is four times
// the default cache, so every request misses.
func batch32ColdBodies() []string {
	r := rand.New(rand.NewSource(2026))
	bodies := make([]string, 1024)
	for i := range bodies {
		var work, intensity [32]string
		for j := range work {
			work[j] = strconv.FormatFloat(1e9*(0.5+r.Float64()), 'g', -1, 64)
			intensity[j] = strconv.FormatFloat(math.Exp2(-1+4*r.Float64()), 'g', -1, 64)
		}
		bodies[i] = `{"machine":"gtx580","precision":"double","work":[` + strings.Join(work[:], ",") +
			`],"intensities":[` + strings.Join(intensity[:], ",") + `]}`
	}
	return bodies
}

// benchScenarios returns the pinned direct-path benchmarks. Each one
// builds a fresh server so cold scenarios stay cold.
func benchScenarios() []benchScenario {
	return []benchScenario{
		{name: "BenchmarkServerEvalCold", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			p := newDirectPoster(s.Handler(), "/v1/eval")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.post(b, evalBody("gtx580", "double", 1e9, 1+float64(i)*1e-6))
			}
		}},
		{name: "BenchmarkServerEvalWarm", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			p := newDirectPoster(s.Handler(), "/v1/eval")
			p.post(b, warmEvalBody)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.post(b, warmEvalBody)
			}
		}},
		{name: "BenchmarkServerEvalWarmParallel", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			warm := newDirectPoster(s.Handler(), "/v1/eval")
			warm.post(b, warmEvalBody)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				p := newDirectPoster(s.Handler(), "/v1/eval")
				for pb.Next() {
					p.post(b, warmEvalBody)
				}
			})
		}},
		{name: "BenchmarkServerEvalBatchCold", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			p := newDirectPoster(s.Handler(), "/v1/evalbatch")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.post(b, fmt.Sprintf(
					`{"machine":"gtx580","precision":"double","intensities":[0.25,0.5,1,2,4,8,16,%g]}`,
					32+float64(i)*1e-6))
			}
		}},
		{name: "BenchmarkServerEvalBatch32Cold", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			p := newDirectPoster(s.Handler(), "/v1/evalbatch")
			bodies := batch32ColdBodies()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.post(b, bodies[i%len(bodies)])
			}
		}},
		{name: "BenchmarkServerEvalBatchWarm", fn: func(b *testing.B) {
			s := server.New(server.Config{})
			defer s.Close()
			p := newDirectPoster(s.Handler(), "/v1/evalbatch")
			p.post(b, warmEvalBatchBody)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.post(b, warmEvalBatchBody)
			}
		}},
	}
}

// firstWarmNs returns the oldest recorded BenchmarkServerEvalWarm
// ns/op — the PR 2 single-lock baseline the warm-path speedup gate
// compares against.
func firstWarmNs(f *benchfile.File) int64 {
	for _, e := range f.Entries {
		if m, ok := e.Scenarios["BenchmarkServerEvalWarm"]; ok && m.NsPerOp > 0 {
			return m.NsPerOp
		}
	}
	return 0
}

func main() {
	testing.Init()
	var (
		bench        = flag.Bool("bench", false, "run the pinned direct-path server benchmarks")
		benchFile    = flag.String("bench-file", "BENCH_server.json", "trajectory file to compare against and record entries into")
		benchtime    = flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark scenario")
		check        = flag.Bool("check", false, "exit nonzero when measurements regress beyond the thresholds against the newest recorded entry")
		maxSlowdown  = flag.Float64("max-slowdown", 1.5, "-check fails when ns/op regresses beyond this factor (<= 0 disables)")
		maxAllocG    = flag.Float64("max-alloc-growth", 1.10, "-check fails when allocs/op exceeds recorded*this (<= 0 disables)")
		minWarmSpeed = flag.Float64("min-warm-speedup", 5, "-check fails when warm /v1/eval is not at least this many times faster than the oldest recorded entry (<= 0 disables)")
		update       = flag.Bool("update", false, "append this run as a new entry in -bench-file")
		pr           = flag.Int("pr", 0, "PR number to record with -update")
		note         = flag.String("note", "", "note to record with -update")
	)
	flag.Parse()
	if !*bench {
		fatal(errors.New("-bench is required; for HTTP load against rooflined run bash bench/run.sh -workload eval_zipf (see bench/README.md)"))
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	f, err := benchfile.Load(*benchFile, "Trajectory of rooflined server benchmarks (go run ./cmd/loadgen -bench). "+
		"One entry per PR that touches the server path; append, never rewrite history.")
	if err != nil {
		fatal(err)
	}

	entry := benchfile.Entry{PR: *pr, Note: *note, Scenarios: map[string]benchfile.Metrics{}}
	var names []string
	fmt.Printf("%-34s %14s %14s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, s := range benchScenarios() {
		r := testing.Benchmark(s.fn)
		m := benchfile.Metrics{NsPerOp: r.NsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
		entry.Scenarios[s.name] = m
		names = append(names, s.name)
		fmt.Printf("%-34s %14d %14d %12d\n", s.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	var fails []string
	if *check {
		fails = f.Check(names, entry.Scenarios, benchfile.Gate{
			MaxSlowdown: *maxSlowdown, MaxAllocGrowth: *maxAllocG, Ceilings: allocCeilings})
		warm := entry.Scenarios["BenchmarkServerEvalWarm"].NsPerOp
		if base := firstWarmNs(f); *minWarmSpeed > 0 && base > 0 && warm > 0 && float64(base)/float64(warm) < *minWarmSpeed {
			fails = append(fails, fmt.Sprintf("REGRESSION warm /v1/eval: %.1fx over the oldest entry (%d ns/op), want >= %.1fx",
				float64(base)/float64(warm), base, *minWarmSpeed))
		}
	}

	for _, line := range fails {
		fmt.Fprintln(os.Stderr, "loadgen:", line)
	}
	if *update {
		if err := f.Append(*benchFile, entry); err != nil {
			fatal(err)
		}
		fmt.Printf("loadgen: wrote %s\n", *benchFile)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	if *check {
		fmt.Println("loadgen: all measurements within thresholds")
	}
}

// fatal prints err and exits nonzero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(2)
}
