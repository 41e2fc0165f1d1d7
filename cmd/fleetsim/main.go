// Command fleetsim drives the deterministic fleet simulator
// (internal/cluster): synthetic traffic from internal/workload routed
// over a fleet of rooflined replicas under every routing policy, with
// per-policy throughput, latency percentiles, cache hit rates,
// coalesce ratios, and total simulated energy.
//
// The report is byte-identical at any -workers value — the determinism
// the golden tests pin — so fleetsim output diffs cleanly across
// commits.
//
// Usage:
//
//	go run ./cmd/fleetsim                          # run the smoke scenario, print the table
//	go run ./cmd/fleetsim -scenario list           # list scenarios
//	go run ./cmd/fleetsim -scenario cluster_1m     # one 1M-request fleet scenario
//	go run ./cmd/fleetsim -scenario all -workers 4 # everything, 4 policy cells at a time
//	go run ./cmd/fleetsim -json report.json        # machine-readable report ("-" for stdout)
//	go run ./cmd/fleetsim -trace fleet.json        # Chrome trace_event spans (virtual time)
//	go run ./cmd/fleetsim -replay trace.json       # replay a recorded workload trace
//
// The simulator's own speed is BenchmarkFleet in internal/cluster,
// gated against BENCH_cluster.json by cmd/benchgate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	scenarioFlag := flag.String("scenario", "smoke", "comma-separated scenario names, 'all', or 'list'")
	workers := flag.Int("workers", 0, "parallel policy cells (<1 = GOMAXPROCS); the report is byte-identical at any value")
	jsonOut := flag.String("json", "", "write the JSON report to this path ('-' for stdout)")
	traceOut := flag.String("trace", "", "write Chrome trace_event JSON of virtual replica.serve spans to this path")
	replay := flag.String("replay", "", "replay a workload trace (JSON from internal/workload) instead of generating the scenario's own")
	requests := flag.Int("requests", 0, "override every scenario's request count (0 = scenario default)")
	replicas := flag.Int("replicas", 0, "override every scenario's replica count by truncating/tiling its fleet (0 = scenario default)")
	pinMaxFreq := flag.Bool("pin-max-freq", false, "clear every replica's DVFS operating point (run the same fleet at base clock)")
	flag.Parse()

	catalog := cluster.Scenarios()
	if *scenarioFlag == "list" {
		for _, name := range cluster.ScenarioNames() {
			fmt.Printf("%-12s %s\n", name, catalog[name].Desc)
		}
		return
	}
	var names []string
	if *scenarioFlag == "all" || *scenarioFlag == "" {
		names = cluster.ScenarioNames()
	} else {
		for _, name := range strings.Split(*scenarioFlag, ",") {
			name = strings.TrimSpace(name)
			if _, ok := catalog[name]; !ok {
				fatalf("unknown scenario %q (use -scenario list)", name)
			}
			names = append(names, name)
		}
	}

	var replayed *workload.Trace
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		replayed, err = workload.ParseTrace(data)
		if err != nil {
			fatalf("%v", err)
		}
	}

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{Capacity: 1 << 15})
	}

	reports := make([]*cluster.Report, 0, len(names))
	for _, name := range names {
		sc := applyOverrides(catalog[name], *requests, *replicas, *pinMaxFreq)
		rep, err := cluster.RunScenario(context.Background(), sc, cluster.Options{
			Workers: *workers,
			Tracer:  tracer,
			Trace:   replayed,
		})
		if err != nil {
			fatalf("%v", err)
		}
		printReport(rep)
		reports = append(reports, rep)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reports); err != nil {
			fatalf("%v", err)
		}
	}
	if *traceOut != "" {
		data, err := tracer.MarshalChrome()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*traceOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
}

// fatalf prints one error line and exits 2 (usage/config errors).
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetsim: "+format+"\n", args...)
	os.Exit(2)
}

// applyOverrides shrinks or grows a catalog scenario per -requests and
// -replicas: the fleet is truncated or tiled (repeating the spec list)
// to the requested size, so CI can smoke a 1M scenario in seconds.
// -pin-max-freq strips every replica's DVFS operating point, the
// baseline a DVFS scenario's energy claim compares against.
func applyOverrides(sc cluster.Scenario, requests, replicas int, pinMaxFreq bool) cluster.Scenario {
	if pinMaxFreq {
		sc = cluster.PinMaxFrequency(sc)
	}
	if requests > 0 {
		sc.Workload.Requests = requests
		if sc.Workload.Clients > requests {
			sc.Workload.Clients = requests
		}
	}
	if replicas > 0 {
		fleet := make([]cluster.ReplicaSpec, replicas)
		for i := range fleet {
			fleet[i] = sc.Replicas[i%len(sc.Replicas)]
		}
		sc.Replicas = fleet
	}
	return sc
}

// writeJSON renders the reports (one object for a single scenario, an
// array otherwise) to path or stdout.
func writeJSON(path string, reports []*cluster.Report) error {
	var data []byte
	var err error
	if len(reports) == 1 {
		data, err = reports[0].Marshal()
	} else {
		data, err = json.MarshalIndent(reports, "", " ")
		data = append(data, '\n')
	}
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printReport renders one scenario's human table.
func printReport(r *cluster.Report) {
	fmt.Printf("scenario %s: %s\n", r.Scenario, r.Description)
	fmt.Printf("  %d replicas, %d requests (%s)\n", r.Replicas, r.Requests, r.Workload)
	fmt.Printf("  %-14s %10s %9s %9s %9s %8s %9s %12s\n",
		"policy", "rps", "p50 ms", "p99 ms", "p999 ms", "hit%", "coalesce", "J/req")
	for _, p := range r.Policies {
		fmt.Printf("  %-14s %10.1f %9.2f %9.2f %9.2f %7.1f%% %9.4f %12.4f\n",
			p.Policy, p.ThroughputRPS, p.P50ms, p.P99ms, p.P999ms,
			100*p.CacheHitRate, p.CoalesceRatio, p.EnergyPerRequest)
	}
}
