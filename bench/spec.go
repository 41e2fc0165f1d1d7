package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
)

// benchSpec mirrors BENCHMARK.json. Units live only there: the
// benchmark computes values by name and takes each unit from the spec.
// Command and Paths are not used here; they are declared so that the
// decoder, which rejects unknown keys, accepts them.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// workloadSpec is one declared workload and why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one declared metric. Bound, the share of the parent's
// median by which the metric may worsen, is set on end-to-end metrics
// only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// layerEffect is the prediction a per-layer metric stands for: the
// end-to-end metric it should move, and on which workload.
type layerEffect struct {
	moves, on string
}

// layerEffects maps every per-layer metric to its prediction. The
// bench.* metric should move nothing: if it moves with throughput, the
// run is measuring the load generator.
var layerEffects = map[string]layerEffect{
	"bench.cpu_us_per_req":   {"throughput_rps", "eval_zipf"},
	"sut.cpu_us_per_req":     {"throughput_rps", "batch_cold"},
	"sut.allocs_per_req":     {"latency_p50_ms", "fleet_closed"},
	"sut.gc_cpu_share":       {"latency_p50_ms", "fleet_closed"},
	"server.cache_hit_ratio": {"joules_per_request", "eval_zipf"},
	"serve.us_per_req":       {"latency_p50_ms", "fleet_open"},
	"dispatch.us_per_req":    {"latency_p50_ms", "eval_zipf"},
	"trace.overhead_ratio":   {"throughput_rps", "eval_zipf"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json, rejecting unknown keys.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// validate checks the spec's workloads and metrics against the benchmark
// contract's limits and against this implementation: every declared
// workload is implemented, and every per-layer metric names what it
// should move.
func (s *benchSpec) validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d is outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			bad("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			bad("name %q is used twice", n)
		}
		seen[n] = true
	}
	declared := map[string]bool{}
	for _, w := range s.Workloads {
		name(w.Name)
		declared[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		if !declared[w.name] {
			bad("workload %s is implemented but not declared", w.name)
		}
		delete(declared, w.name)
	}
	for n := range declared {
		bad("workload %s is declared but not implemented", n)
	}
	endToEnd := map[string]bool{}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range s.EndToEnd {
		name(m.Name)
		endToEnd[m.Name] = true
		checkMetric(m, bad)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			bad("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				bad("setup_s must have unit s and better lower")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		bad("setup_s must be declared with the largest bound")
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		checkMetric(m, bad)
		if m.Bound != 0 {
			bad("per-layer metric %s has a bound; per-layer metrics are not gated", m.Name)
		}
		e, ok := layerEffects[m.Name]
		if !ok {
			bad("per-layer metric %s does not name what it should move", m.Name)
		} else if !endToEnd[e.moves] || !seen[e.on] {
			bad("per-layer metric %s should move %s on %s, which is not declared", m.Name, e.moves, e.on)
		}
	}
	return errors.Join(errs...)
}

// checkMetric checks one metric's unit and direction.
func checkMetric(m metricSpec, bad func(string, ...any)) {
	if !unitRE.MatchString(m.Unit) {
		bad("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
	}
	if m.Better != "lower" && m.Better != "higher" {
		bad("metric %s: better must be lower or higher, not %q", m.Name, m.Better)
	}
}

// metrics returns the declared metrics a run reports: per-layer for a
// traced run, end-to-end otherwise.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// emit pairs each measured value with its declared unit. A run must
// measure exactly the declared metrics, each a finite number, and no
// end-to-end metric may be 0.
func (s *benchSpec) emit(traced bool, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range s.metrics(traced) {
		v, ok := values[m.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s measured %v", m.Name, v)
		case !traced && v == 0:
			return nil, fmt.Errorf("end-to-end metric %s measured 0", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(out) != len(values) {
		for n := range values {
			if _, ok := out[n]; !ok {
				return nil, fmt.Errorf("measured metric %s is not declared", n)
			}
		}
	}
	return out, nil
}
