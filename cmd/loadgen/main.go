// Command loadgen is the rooflined server's HTTP load-generation
// harness: it drives real POST /v1/eval traffic — generated by the
// internal/workload arrival and content-key generators, so the key
// popularity, kernel shapes, and think times are the exact reproducible
// streams the cluster simulator uses — through real connections against
// a live server (or an in-process one it starts itself), and reports
// achieved throughput, latency percentiles, cache behaviour, and a
// roofline-priced energy bill per request.
//
// It is also the BENCH_server.json regression gate: -bench measures the
// pinned direct-path server benchmarks (the same scenarios as go test
// ./internal/server/ -bench) with the testing harness and applies the
// shared trajectory workflow of internal/benchfile — -check fails CI on
// regressions against the newest entry that records each scenario,
// -update appends a new entry. -load -check compares against the newest
// recorded load report and refuses one measured at different -clients,
// -requests or -keys.
//
// Usage:
//
//	go run ./cmd/loadgen                       # closed-loop load run against an in-process server
//	go run ./cmd/loadgen -url http://host:8080 # against a live rooflined
//	go run ./cmd/loadgen -clients 32 -requests 50000 -keys 2000
//	go run ./cmd/loadgen -bench -check         # direct-path regression gate (CI)
//	go run ./cmd/loadgen -bench -load -update -pr N -note "..."
//
// Energy pricing: every cache miss is priced at the machine's capped
// roofline energy for that request's kernel (core.Params.CappedEnergy),
// hits and coalesced requests are free, and the machine's constant
// power π0 bills for the wall-clock time the run leaves the server
// resident. Joules per request is that total divided by the request
// count — the served-system counterpart of the paper's energy roofline.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfile"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
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
// Equal (work, intensity) always render equal bytes, so duplicate
// workload keys hash to duplicate requests server-side.
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

// loadOpts carries the closed-loop load phase's configuration.
type loadOpts struct {
	url        string
	machineKey string
	precision  string
	spec       workload.Spec
	timescale  float64
}

// loadResult is one load run's raw measurements before reporting.
type loadResult struct {
	wall      time.Duration
	latencies []time.Duration
	hits      int
	misses    int
	coalesced int
	// missEnergy and missTime are the roofline-priced capped energy and
	// time summed over every miss's kernel.
	missEnergy float64
	missTime   float64
}

// runLoad drives the closed-loop load: each workload client replays its
// partition of the trace over a shared keep-alive transport, one
// in-flight request per client, optional think time between them.
func runLoad(opts loadOpts) (*loadResult, error) {
	tr, err := workload.Generate(opts.spec)
	if err != nil {
		return nil, err
	}
	cat := machine.Catalog()
	m, ok := cat[opts.machineKey]
	if !ok {
		return nil, fmt.Errorf("loadgen: unknown machine %q", opts.machineKey)
	}
	prec := machine.Single
	if opts.precision == "double" {
		prec = machine.Double
	} else if opts.precision != "single" {
		return nil, fmt.Errorf("loadgen: unknown precision %q", opts.precision)
	}
	params := core.FromMachine(m, prec)

	perClient := make([][]workload.Request, opts.spec.Clients)
	for _, r := range tr.Requests {
		perClient[r.Client] = append(perClient[r.Client], r)
	}

	transport := &http.Transport{
		MaxIdleConns:        opts.spec.Clients * 2,
		MaxIdleConnsPerHost: opts.spec.Clients * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	type clientResult struct {
		latencies []time.Duration
		hits      int
		misses    int
		coalesced int
		missE     float64
		missT     float64
		err       error
	}
	results := make([]clientResult, opts.spec.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.latencies = make([]time.Duration, 0, len(perClient[c]))
			for _, r := range perClient[c] {
				if opts.timescale > 0 && r.Time > 0 {
					time.Sleep(time.Duration(r.Time * opts.timescale * float64(time.Second)))
				}
				body := evalBody(opts.machineKey, opts.precision, r.Work, r.Intensity)
				t0 := time.Now()
				resp, err := client.Post(opts.url+"/v1/eval", "application/json", strings.NewReader(body))
				if err != nil {
					res.err = err
					return
				}
				_, cpErr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				res.latencies = append(res.latencies, time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					res.err = fmt.Errorf("loadgen: request %d: status %d", r.ID, resp.StatusCode)
					return
				}
				if cpErr != nil {
					res.err = cpErr
					return
				}
				switch resp.Header.Get("X-Cache") {
				case "hit":
					res.hits++
				case "coalesced":
					res.coalesced++
				case "miss":
					res.misses++
					k := core.KernelAt(r.Work, r.Intensity)
					res.missE += params.CappedEnergy(k)
					res.missT += params.CappedTime(k)
				default:
					res.err = fmt.Errorf("loadgen: request %d: missing X-Cache header", r.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	out := &loadResult{wall: wall}
	for c := range results {
		if err := results[c].err; err != nil {
			return nil, err
		}
		out.latencies = append(out.latencies, results[c].latencies...)
		out.hits += results[c].hits
		out.misses += results[c].misses
		out.coalesced += results[c].coalesced
		out.missEnergy += results[c].missE
		out.missTime += results[c].missT
	}
	return out, nil
}

// percentile returns the q-quantile (0 < q <= 1) of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// report condenses a load run into the recorded load report, pricing
// energy on the roofline: misses pay their kernel's capped energy, the
// machine's constant power π0 pays for the wall-clock residency not
// already billed inside a miss's capped time.
func report(opts loadOpts, res *loadResult, params core.Params) benchfile.LoadReport {
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	n := len(res.latencies)
	wallSec := res.wall.Seconds()
	idleSec := wallSec - res.missTime
	if idleSec < 0 {
		idleSec = 0
	}
	totalJ := res.missEnergy + params.Pi0*idleSec
	return benchfile.LoadReport{
		Clients:          opts.spec.Clients,
		Requests:         n,
		Keys:             opts.spec.Keys,
		AchievedRPS:      float64(n) / wallSec,
		P50Micros:        float64(percentile(res.latencies, 0.50)) / 1e3,
		P99Micros:        float64(percentile(res.latencies, 0.99)) / 1e3,
		P999Micros:       float64(percentile(res.latencies, 0.999)) / 1e3,
		HitRate:          float64(res.hits) / float64(n),
		CoalesceRate:     float64(res.coalesced) / float64(n),
		JoulesPerRequest: totalJ / float64(n),
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
		url          = flag.String("url", "", "target server base URL (empty = start an in-process server on a loopback port)")
		bench        = flag.Bool("bench", false, "run the pinned direct-path server benchmarks")
		load         = flag.Bool("load", false, "run the closed-loop HTTP load phase (default when -bench is off)")
		clients      = flag.Int("clients", 16, "closed-loop client population")
		requests     = flag.Int("requests", 20000, "total requests to issue")
		keys         = flag.Int("keys", 500, "content-key universe size")
		zipfS        = flag.Float64("zipf", 1.1, "Zipf popularity exponent (0 = uniform)")
		think        = flag.Float64("think", 0, "mean think time per client between requests, seconds")
		timescale    = flag.Float64("timescale", 0, "multiplier on generated think times (0 = no think sleeps, full closed-loop pressure)")
		seed         = flag.Int64("seed", 42, "workload base seed (same seed = same byte-exact request stream)")
		machineKey   = flag.String("machine", "gtx580", "machine key requests evaluate against (see GET /v1/machines)")
		precision    = flag.String("precision", "double", "precision requests evaluate at (single or double)")
		workFlops    = flag.Float64("work", 1e9, "base kernel work per request, flops")
		loIntensity  = flag.Float64("lo-intensity", 0.5, "lower operational-intensity bound, flops/byte")
		hiIntensity  = flag.Float64("hi-intensity", 8, "upper operational-intensity bound, flops/byte")
		cacheShards  = flag.Int("cache-shards", 0, "in-process server cache shards (0 = default)")
		cacheEntries = flag.Int("cache-entries", 0, "in-process server cache entry bound (0 = default)")
		benchFile    = flag.String("bench-file", "BENCH_server.json", "trajectory file to compare against and record entries into")
		benchtime    = flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark scenario")
		check        = flag.Bool("check", false, "exit nonzero when measurements regress beyond the thresholds against the newest recorded entry")
		maxSlowdown  = flag.Float64("max-slowdown", 1.5, "-check fails when ns/op (or rps/p99 for -load) regresses beyond this factor (<= 0 disables)")
		maxAllocG    = flag.Float64("max-alloc-growth", 1.10, "-check fails when allocs/op exceeds recorded*this (<= 0 disables)")
		minWarmSpeed = flag.Float64("min-warm-speedup", 5, "-check fails when warm /v1/eval is not at least this many times faster than the oldest recorded entry (<= 0 disables)")
		update       = flag.Bool("update", false, "append this run as a new entry in -bench-file")
		pr           = flag.Int("pr", 0, "PR number to record with -update")
		note         = flag.String("note", "", "note to record with -update")
	)
	flag.Parse()
	if !*bench {
		*load = true
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	f, err := benchfile.Load(*benchFile, "Trajectory of rooflined server benchmarks (go run ./cmd/loadgen -bench). "+
		"One entry per PR that touches the server path; append, never rewrite history.")
	if err != nil {
		fatal(err)
	}
	// A load report measures one (clients, requests, keys) shape; -check
	// compares only against a recording of the same shape.
	var loadRef *benchfile.LoadReport
	if *load && *check && *maxSlowdown > 0 {
		if loadRef = f.LatestLoad(); loadRef != nil {
			for _, d := range []struct {
				flag      string
				rec, this int
			}{{"clients", loadRef.Clients, *clients}, {"requests", loadRef.Requests, *requests}, {"keys", loadRef.Keys, *keys}} {
				if d.rec != d.this {
					fatal(fmt.Errorf("-check: the newest recorded load report ran -%s %d, this run -%s %d; rerun with -clients %d -requests %d -keys %d",
						d.flag, d.rec, d.flag, d.this, loadRef.Clients, loadRef.Requests, loadRef.Keys))
				}
			}
		}
	}

	// An in-process target serves over a real loopback listener, so the
	// load phase still measures TCP + net/http, just without a network.
	target := *url
	var srv *server.Server
	if target == "" && *load {
		s := server.New(server.Config{CacheShards: *cacheShards, CacheEntries: *cacheEntries})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer func() { hs.Close(); s.Close() }()
		target = "http://" + ln.Addr().String()
		srv = s
		fmt.Printf("loadgen: in-process server on %s\n", target)
	}

	var fails []string
	entry := benchfile.Entry{PR: *pr, Note: *note}

	if *bench {
		entry.Scenarios = map[string]benchfile.Metrics{}
		var names []string
		fmt.Printf("%-34s %14s %14s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
		for _, s := range benchScenarios() {
			r := testing.Benchmark(s.fn)
			m := benchfile.Metrics{NsPerOp: r.NsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
			entry.Scenarios[s.name] = m
			names = append(names, s.name)
			fmt.Printf("%-34s %14d %14d %12d\n", s.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		}
		if *check {
			fails = f.Check(names, entry.Scenarios, benchfile.Gate{
				MaxSlowdown: *maxSlowdown, MaxAllocGrowth: *maxAllocG, Ceilings: allocCeilings})
			warm := entry.Scenarios["BenchmarkServerEvalWarm"].NsPerOp
			if base := firstWarmNs(f); *minWarmSpeed > 0 && base > 0 && warm > 0 && float64(base)/float64(warm) < *minWarmSpeed {
				fails = append(fails, fmt.Sprintf("REGRESSION warm /v1/eval: %.1fx over the oldest entry (%d ns/op), want >= %.1fx",
					float64(base)/float64(warm), base, *minWarmSpeed))
			}
		}
	}

	if *load {
		spec := workload.Spec{
			Kind:         workload.Closed,
			Clients:      *clients,
			ThinkSeconds: *think,
			Requests:     *requests,
			Keys:         *keys,
			ZipfS:        *zipfS,
			WorkFlops:    *workFlops,
			LoIntensity:  *loIntensity,
			HiIntensity:  *hiIntensity,
			Seed:         *seed,
		}
		opts := loadOpts{url: target, machineKey: *machineKey, precision: *precision, spec: spec, timescale: *timescale}
		res, err := runLoad(opts)
		if err != nil {
			fatal(err)
		}
		if n := res.hits + res.misses + res.coalesced; n != *requests {
			fatal(fmt.Errorf("accounting: %d hits + %d misses + %d coalesced != %d requests",
				res.hits, res.misses, res.coalesced, *requests))
		}
		if srv != nil {
			// In-process target: the client-observed X-Cache tallies must
			// match the server's own counters exactly.
			reg := srv.Metrics()
			if got := reg.Counter("requests_eval_total").Value(); got != uint64(*requests) {
				fatal(fmt.Errorf("accounting: server saw %d eval requests, client issued %d", got, *requests))
			}
			if got := reg.Counter("cache_hits_total").Value(); got != uint64(res.hits) {
				fatal(fmt.Errorf("accounting: server counted %d hits, clients observed %d", got, res.hits))
			}
			if got := reg.Counter("eval_computes_total").Value(); got != uint64(res.misses) {
				fatal(fmt.Errorf("accounting: server computed %d evals, clients observed %d misses", got, res.misses))
			}
		}
		prec := machine.Double
		if *precision == "single" {
			prec = machine.Single
		}
		params := core.FromMachine(machine.Catalog()[*machineKey], prec)
		rep := report(opts, res, params)
		entry.Load = &rep
		fmt.Printf("loadgen: %d requests, %d clients, %d keys (zipf %.2f) against %s\n",
			rep.Requests, rep.Clients, rep.Keys, *zipfS, *machineKey)
		fmt.Printf("  achieved    %12.0f req/s  (wall %.2fs)\n", rep.AchievedRPS, res.wall.Seconds())
		fmt.Printf("  latency     p50 %8.1fus  p99 %8.1fus  p99.9 %8.1fus\n", rep.P50Micros, rep.P99Micros, rep.P999Micros)
		fmt.Printf("  cache       %5.1f%% hit  %5.1f%% coalesced  %d misses\n",
			rep.HitRate*100, rep.CoalesceRate*100, res.misses)
		fmt.Printf("  energy      %.3g J/request  (%.3g J compute + %.4g W idle x %.2fs)\n",
			rep.JoulesPerRequest, res.missEnergy, params.Pi0, res.wall.Seconds())
		if loadRef != nil {
			if rep.AchievedRPS*(*maxSlowdown) < loadRef.AchievedRPS {
				fails = append(fails, fmt.Sprintf("REGRESSION throughput: %.0f rps vs recorded %.0f rps (allowed factor %.2f)",
					rep.AchievedRPS, loadRef.AchievedRPS, *maxSlowdown))
			}
			if loadRef.P99Micros > 0 && rep.P99Micros > loadRef.P99Micros*(*maxSlowdown) {
				fails = append(fails, fmt.Sprintf("REGRESSION p99 latency: %.1fus vs recorded %.1fus (allowed factor %.2f)",
					rep.P99Micros, loadRef.P99Micros, *maxSlowdown))
			}
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
