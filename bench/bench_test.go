package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBenchmarkJSON loads the repository's BENCHMARK.json, which
// validates it against the contract: names, limits, units, directions,
// bounds, the workloads implemented here, and every per-layer metric
// naming the end-to-end metric and workload it should move.
func TestBenchmarkJSON(t *testing.T) {
	if _, err := loadSpec("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// TestSpecValidationRejects breaks one rule at a time and requires the
// validator to say which.
func TestSpecValidationRejects(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *benchSpec)
		want   string
	}{
		{"bad name", func(s *benchSpec) { s.EndToEnd[1].Name = "rps/s" }, "does not match"},
		{"duplicate name", func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name }, "used twice"},
		{"too many workloads", func(s *benchSpec) {
			for len(s.Workloads) <= 8 {
				s.Workloads = append(s.Workloads, workloadSpec{Name: "w" + strings.Repeat("x", len(s.Workloads)), Why: "x"})
			}
		}, "want 2 to 8"},
		{"too many per-layer metrics", func(s *benchSpec) {
			for len(s.PerLayer) <= 128 {
				s.PerLayer = append(s.PerLayer, s.PerLayer[0])
			}
		}, "want 1 to 128"},
		{"no unit", func(s *benchSpec) { s.EndToEnd[2].Unit = "" }, "unit"},
		{"no direction", func(s *benchSpec) { s.PerLayer[0].Better = "up" }, "better must be"},
		{"no bound", func(s *benchSpec) { s.EndToEnd[3].Bound = 0 }, "bound 0"},
		{"setup_s not the widest bound", func(s *benchSpec) { s.EndToEnd[1].Bound = 0.25; s.EndToEnd[0].Bound = 0.2 }, "largest bound"},
		{"per-layer metric without prediction", func(s *benchSpec) { s.PerLayer[0].Name = "mystery.layer" }, "does not name what it should move"},
		{"unimplemented workload", func(s *benchSpec) { s.Workloads[0].Name = "other" }, "not implemented"},
	} {
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&s)
		if err := s.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate() = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestNearestRankTail pins the nearest-rank percentile and the rule that
// a tail percentile is reported only with ten samples beyond it.
func TestNearestRankTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := p50.of(xs); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := p99.of(xs); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	for _, tc := range []struct {
		n    int
		want string // "" when no tail is supported
	}{
		{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"},
		{10000, "p99.9"}, {100000, "p99.99"}, {1000000, "p99.999"},
	} {
		q, ok := highestTail(tc.n)
		if got := map[bool]string{true: q.name}[ok]; got != tc.want {
			t.Errorf("highestTail(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	// Quartiles match Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestSameSeedSameInputs requires the request bodies and the open-loop
// schedule to be a function of the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, spec := range []*httpSpec{&evalZipf, &batchCold} {
		a, err := spec.inputs(7, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.inputs(7, true)
		c, _ := spec.inputs(8, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", spec.path)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", spec.path)
		}
	}
	a := openSchedule(7, 8000, 100*time.Millisecond)
	if !reflect.DeepEqual(a, openSchedule(7, 8000, 100*time.Millisecond)) {
		t.Error("seed 7 gave two different open-loop schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 8000, 100*time.Millisecond)) {
		t.Error("seeds 7 and 8 gave the same open-loop schedule")
	}
}

// TestOpenLoopStallShows stalls a stub server for 20 ms and requires the
// open loop to charge that stall to the requests due during it, which a
// loop timing each request from its send would not.
func TestOpenLoopStallShows(t *testing.T) {
	var n atomic.Int64
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		if n.Add(1) == 50 {
			time.Sleep(20 * time.Millisecond)
		}
		mu.Unlock()
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	in := &inputs{bodies: [][]byte{[]byte("{}")}, joules: []float64{0}, seq: []int32{0}}
	l := newLoad(srv.URL, &httpSpec{path: "/"}, in)
	defer l.close()
	res := l.open(openSchedule(1, 2000, 300*time.Millisecond))
	if res.failed > 0 {
		t.Fatalf("%d requests failed: %s", res.failed, res.firstErr)
	}
	slow := 0
	for _, d := range res.lat {
		if d >= 5*time.Millisecond {
			slow++
		}
	}
	// About 40 requests fall due during the stall at 2000/s; a loop timing
	// from the send would see at most one slow request per connection.
	if slow < 10 {
		t.Errorf("%d of %d requests took 5 ms or more, want at least 10", slow, len(res.lat))
	}
	if res.backlog < 2 {
		t.Errorf("backlog peaked at %d during a 20 ms stall", res.backlog)
	}
}

// TestCompareSeries pins the pair and median rules of -compare.
func TestCompareSeries(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(a))
	for i, x := range a {
		faster[i] = x * 0.8
	}
	c := compareSeries(a, faster, false)
	if c.won != 1 || !c.gain || c.worseBy > -0.19 || c.worseBy < -0.21 {
		t.Errorf("20%% lower latency: %+v, want won 1, gain, worse by -20%%", c)
	}
	c = compareSeries(a, faster, true)
	if c.won != 0 || c.gain || c.worseBy < 0.19 || c.worseBy > 0.21 {
		t.Errorf("20%% lower throughput: %+v, want won 0, no gain, worse by 20%%", c)
	}
	if c := compareSeries(a, a, false); c.won != 0 || c.gain || c.worseBy != 0 {
		t.Errorf("identical series: %+v, want all ties", c)
	}
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny scale, traced
// and untraced, and requires every output check to pass and every
// declared metric to be emitted with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rooflined")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, root: root, seed: 5, seconds: 1.5, trace: traced,
				outDir: t.TempDir(), binDir: bin, tiny: true}
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if len(o.failures) > 0 || o.attempted == 0 {
				t.Errorf("%s traced=%t: %d attempted, failures %q", w.name, traced, o.attempted, o.failures)
			}
			metrics, err := spec.emit(traced, o.values)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			for _, m := range spec.metrics(traced) {
				if metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s traced=%t: %s emitted with unit %q, want %q", w.name, traced, m.Name, metrics[m.Name].Unit, m.Unit)
				}
			}
		}
	}
}
