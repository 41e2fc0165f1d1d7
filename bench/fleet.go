package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fleetWorkers is the policy-cell parallelism of the fleet workloads:
// the CPUs of the host the bounds were set on.
const fleetWorkers = 2

// reportDigests are the SHA-256 sums of each scenario's report at the
// default seed: the bytes `fleetsim -scenario <name> -json -` prints.
var reportDigests = map[string]string{
	"cluster_1m": "37260780f473bd25bd33727bd3f160627d327917e56bbf25c31d2fdbfea5c7d9",
	"closed_1m":  "0e2b50a1b439b9c297e6783329289c3261af09292d72767ae1c8ffe191ce9457",
}

// fleetScenario returns the catalog scenario with the run's seed; tiny
// shrinks it to 20k requests.
func fleetScenario(name string, seed int64, tiny bool) (cluster.Scenario, error) {
	sc, ok := cluster.Scenarios()[name]
	if !ok {
		return sc, fmt.Errorf("unknown scenario %q", name)
	}
	sc.Workload.Seed = seed
	if tiny {
		sc.Workload.Requests = 20000
	}
	return sc, sc.Validate()
}

// fleetRun is one RunScenario call's measurements.
type fleetRun struct {
	wall    time.Duration
	mallocs uint64
	cpu     float64 // process CPU seconds
	report  *cluster.Report
	bytes   []byte // report.Marshal()
}

// simulated returns the requests the run simulated over all policies.
func (r *fleetRun) simulated() int64 {
	n := 0
	for _, p := range r.report.Policies {
		n += p.Requests
	}
	return int64(n)
}

// runScenario runs sc over tr once, after a GC so runs start alike.
func runScenario(sc cluster.Scenario, tr *workload.Trace, workers int, tracer *trace.Tracer) (*fleetRun, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	start := time.Now()
	rep, err := cluster.RunScenario(context.Background(), sc, cluster.Options{Workers: workers, Trace: tr, Tracer: tracer})
	wall := time.Since(start)
	cpu1 := selfCPU()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	data, err := rep.Marshal()
	if err != nil {
		return nil, err
	}
	return &fleetRun{wall: wall, mallocs: m1.Mallocs - m0.Mallocs, cpu: cpu1 - cpu0, report: rep, bytes: data}, nil
}

// hitRatio returns the replica caches' hits over lookups, all policies.
func (r *fleetRun) hitRatio() float64 {
	var hits, lookups uint64
	for _, p := range r.report.Policies {
		for _, rep := range p.Replicas {
			hits, lookups = hits+rep.Hits, lookups+rep.Hits+rep.Misses
		}
	}
	return float64(hits) / float64(lookups)
}

// check requires every policy to complete every request and the report
// to equal the first run's byte for byte.
func (r *fleetRun) check(o *outcome, tr *workload.Trace, first *fleetRun) {
	for _, p := range r.report.Policies {
		if p.Requests != len(tr.Requests) {
			o.fail("%s completed %d of %d requests", p.Policy, p.Requests, len(tr.Requests))
		}
	}
	if first != nil && string(r.bytes) != string(first.bytes) {
		o.fail("report differs between runs of the same trace")
	}
}

// generate builds the scenario and its trace, the fleet's set-up.
func generate(name string, seed int64, tiny bool) (cluster.Scenario, *workload.Trace, time.Duration, error) {
	start := time.Now()
	sc, err := fleetScenario(name, seed, tiny)
	if err != nil {
		return sc, nil, 0, err
	}
	tr, err := workload.Generate(sc.Workload)
	return sc, tr, time.Since(start), err
}

// runFleet runs one fleet workload, traced or not.
func runFleet(cfg runConfig, scenario string) (*outcome, error) {
	o := newOutcome()
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var sc cluster.Scenario
	var tr *workload.Trace
	var setups []float64
	for k := 0; k < repeats; k++ {
		var next *workload.Trace
		var took time.Duration
		var err error
		if sc, next, took, err = generate(scenario, cfg.seed, cfg.tiny); err != nil {
			return nil, err
		}
		if tr != nil && !slices.Equal(tr.Requests, next.Requests) {
			o.fail("workload.Generate gave two traces for one spec")
		}
		tr, setups = next, append(setups, took.Seconds())
	}

	// Untraced runs fill the budget, or half of it when traced. Two runs
	// at least, so that their reports can be compared; one suffices when
	// traced, as the traced run is compared with it.
	budget, minRuns := time.Duration(cfg.seconds*float64(time.Second)), 2
	if cfg.trace {
		budget, minRuns = budget/2, 1
	}
	var runs []*fleetRun
	for start := time.Now(); len(runs) < minRuns || time.Since(start) < budget; {
		r, err := runScenario(sc, tr, fleetWorkers, nil)
		if err != nil {
			return nil, err
		}
		o.attempted += r.simulated()
		var first *fleetRun
		if len(runs) > 0 {
			first = runs[0]
		}
		r.check(o, tr, first)
		runs = append(runs, r)
	}
	first := runs[0]
	if want, ok := reportDigests[scenario]; ok && cfg.seed == defaultSeed && !cfg.tiny {
		if sum := sha256.Sum256(first.bytes); hex.EncodeToString(sum[:]) != want {
			o.fail("report SHA-256 %x at the default seed, want %s", sum, want)
		}
	}
	// Each call is one window: timings are read at the fastest tenth of
	// the calls, as the HTTP workloads read theirs (see window).
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = ms(r.wall)
	}
	walls = sorted(walls)
	o.diag["runs"] = float64(len(runs))
	o.diag["run_median_ms"] = median(walls)
	o.diag["run_max_ms"] = walls[len(walls)-1]
	o.diag["sim_allocs_per_request"] = float64(first.mallocs) / float64(first.simulated())
	if cfg.trace {
		return o, traceFleet(o, cfg, sc, tr, first, median(walls))
	}

	joules := 0.0
	for _, p := range first.report.Policies {
		joules += p.EnergyJoules
	}
	peak, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = median(setups)
	o.values["throughput_rps"] = float64(first.simulated()) / (p10.of(walls) / 1e3)
	o.values["latency_p50_ms"] = p10.of(walls)
	o.values["joules_per_request"] = joules / float64(first.simulated())
	o.values["peak_rss_mb"] = peak
	o.diag["server.cache_hit_ratio"] = first.hitRatio()
	return o, nil
}

// traceFleet is the traced half: one repetition that times the trace's
// generation, each policy cell alone on one worker, and a traced run at
// the workload's parallelism, inside the benchmark's own spans. Every
// cell's report must equal the matching cell of the untraced run, and
// the traced run's report the untraced one.
func traceFleet(o *outcome, cfg runConfig, sc cluster.Scenario, tr *workload.Trace, untraced *fleetRun, untracedMS float64) error {
	bench := trace.New(trace.Config{Capacity: 1 << 10})
	ctx, rep := bench.StartRoot(context.Background(), "bench.fleet_rep")

	_, gen := trace.Start(ctx, "workload.generate")
	cpu0 := selfCPU()
	again, err := workload.Generate(sc.Workload)
	genCPU := selfCPU() - cpu0
	gen.End()
	if err != nil {
		return err
	}
	if !slices.Equal(again.Requests, tr.Requests) {
		o.fail("workload.Generate gave two traces for one spec")
	}

	policies := sc.Policies
	if len(policies) == 0 {
		policies = cluster.PolicyNames()
	}
	var cellSum float64
	var cellReqs int64
	for i, p := range policies {
		_, sp := trace.Start(ctx, "cluster.run."+p)
		one := sc
		one.Policies = []string{p}
		cell, err := runScenario(one, tr, 1, nil)
		sp.End()
		if err != nil {
			return err
		}
		o.attempted += cell.simulated()
		got, err1 := json.Marshal(cell.report.Policies[0])
		want, err2 := json.Marshal(untraced.report.Policies[i])
		if err1 != nil || err2 != nil || string(got) != string(want) {
			o.fail("policy %s alone reports differently than within the scenario", p)
		}
		cellSum += cell.wall.Seconds()
		cellReqs += cell.simulated()
		o.diag["cluster.cell_s."+p] = cell.wall.Seconds()
		o.diag["cluster.cell_allocs_per_req."+p] = float64(cell.mallocs) / float64(cell.simulated())
	}

	_, sp := trace.Start(ctx, "cluster.run")
	sim := trace.New(trace.Config{Capacity: 8192})
	traced, err := runScenario(sc, tr, fleetWorkers, sim)
	sp.End()
	rep.End()
	if err != nil {
		return err
	}
	o.attempted += traced.simulated()
	traced.check(o, tr, untraced)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	n := float64(traced.simulated())
	o.values["bench.cpu_us_per_req"] = genCPU / float64(len(tr.Requests)) * 1e6
	o.values["sut.cpu_us_per_req"] = traced.cpu / n * 1e6
	o.values["sut.allocs_per_req"] = float64(traced.mallocs) / n
	o.values["sut.gc_cpu_share"] = mem.GCCPUFraction
	o.values["server.cache_hit_ratio"] = traced.hitRatio()
	o.values["serve.us_per_req"] = cellSum / float64(cellReqs) * 1e6
	o.values["dispatch.us_per_req"] = (fleetWorkers*traced.wall.Seconds() - cellSum) / n * 1e6
	o.values["trace.overhead_ratio"] = ms(traced.wall) / untracedMS
	o.diag["cluster.parallel_efficiency"] = cellSum / (fleetWorkers * untracedMS / 1e3)
	o.diag["workload.generate_cpu_s"] = genCPU

	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-s%d", cfg.workload, cfg.seed))
	if err := writeChrome(base+".bench-trace.json", bench); err != nil {
		return err
	}
	return writeChrome(base+".sim-trace.json", sim)
}

// writeChrome writes a tracer's spans as Chrome trace_event JSON.
func writeChrome(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
