package cluster

import (
	"encoding/json"
	"math"
	"sort"
)

// Report is one scenario's full result: one PolicyReport per routing
// policy, in the scenario's policy order. Marshal renders it as
// deterministic JSON — the bytes the golden tests pin across worker
// counts.
type Report struct {
	// Scenario is the scenario name.
	Scenario string `json:"scenario"`
	// Description restates the scenario's intent.
	Description string `json:"description"`
	// Replicas is the fleet size.
	Replicas int `json:"replicas"`
	// Requests is the driven request count.
	Requests int `json:"requests"`
	// Workload names the arrival-process kind.
	Workload string `json:"workload"`
	// Policies holds one entry per routing policy.
	Policies []PolicyReport `json:"policies"`
}

// Marshal renders the report as deterministic indented JSON with a
// trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PolicyReport is one (scenario, policy) cell's aggregate metrics.
type PolicyReport struct {
	// Policy is the routing policy name.
	Policy string `json:"policy"`
	// Requests is the completed request count.
	Requests int `json:"requests"`
	// SimSeconds is the simulated makespan (last completion time).
	SimSeconds float64 `json:"sim_seconds"`
	// ThroughputRPS is Requests / SimSeconds.
	ThroughputRPS float64 `json:"throughput_rps"`
	// MeanMs is the mean request latency in milliseconds.
	MeanMs float64 `json:"mean_ms"`
	// P50ms, P99ms, and P999ms are latency percentiles in milliseconds.
	P50ms float64 `json:"p50_ms"`
	// P99ms is the 99th-percentile latency.
	P99ms float64 `json:"p99_ms"`
	// P999ms is the 99.9th-percentile latency.
	P999ms float64 `json:"p999_ms"`
	// CacheHitRate is the fleet-aggregate result-cache hit rate.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CoalesceRatio is the fraction of requests absorbed by joining an
	// in-flight execution instead of queueing their own.
	CoalesceRatio float64 `json:"coalesce_ratio"`
	// EnergyJoules is the fleet's total simulated energy: every engine
	// run's capped roofline energy (eq. 6/9, idle power included for
	// busy time) plus idle power for each replica's non-busy time.
	EnergyJoules float64 `json:"energy_joules"`
	// EnergyPerRequest is EnergyJoules / Requests.
	EnergyPerRequest float64 `json:"energy_per_request_joules"`
	// Replicas holds the per-replica breakdown, in replica-index order.
	Replicas []ReplicaReport `json:"replicas"`
}

// ReplicaReport is one replica's share of a policy cell.
type ReplicaReport struct {
	// ID is the replica index.
	ID int `json:"id"`
	// Machine is the replica's catalog machine key.
	Machine string `json:"machine"`
	// OperatingPoint is the pinned DVFS point name, empty at base clock.
	OperatingPoint string `json:"operating_point,omitempty"`
	// Requests is how many requests the policy routed here.
	Requests int `json:"requests"`
	// Hits and Misses are the replica result cache's lifetime counters.
	Hits uint64 `json:"hits"`
	// Misses counts cache lookups that found nothing.
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that joined an in-flight execution.
	Coalesced int `json:"coalesced"`
	// EngineRuns counts actual simulated kernel executions.
	EngineRuns int `json:"engine_runs"`
	// HitRate is Hits / (Hits + Misses), 0 when the replica saw nothing.
	HitRate float64 `json:"hit_rate"`
	// BusyFrac is the fraction of the makespan spent serving.
	BusyFrac float64 `json:"busy_frac"`
	// EnergyJoules is the replica's kernel energy plus idle energy.
	EnergyJoules float64 `json:"energy_joules"`
	// MaxQueue is the deepest queue observed (in service + waiting).
	MaxQueue int `json:"max_queue"`
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// round6 trims a float to 6 decimal places so report JSON stays tidy
// and byte-stable under re-marshalling.
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// report reduces one finished simulation to its PolicyReport.
func (s *sim) report(policyName string) (PolicyReport, error) {
	n := len(s.latencies)
	// Nothing reads the latencies after the report, so sort them in
	// place.
	sorted := s.latencies
	sort.Float64s(sorted)
	sum := 0.0
	for _, l := range sorted {
		sum += l
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}

	pr := PolicyReport{
		Policy:     policyName,
		Requests:   n,
		SimSeconds: round6(s.makespan),
		MeanMs:     round6(mean * 1e3),
		P50ms:      round6(percentile(sorted, 0.50) * 1e3),
		P99ms:      round6(percentile(sorted, 0.99) * 1e3),
		P999ms:     round6(percentile(sorted, 0.999) * 1e3),
	}
	if s.makespan > 0 {
		pr.ThroughputRPS = round6(float64(n) / s.makespan)
	}

	var hits, misses uint64
	var coalesced int
	var totalJ float64
	for _, rep := range s.fleet.reps {
		cs := rep.cache.Stats()
		hits += cs.Hits
		misses += cs.Misses
		coalesced += rep.coalesced
		idle := s.makespan - rep.busyTime
		if idle < 0 {
			idle = 0
		}
		repJ := rep.kernelJ + rep.params.Pi0*idle
		totalJ += repJ
		rr := ReplicaReport{
			ID:             rep.id,
			Machine:        rep.spec.Machine,
			OperatingPoint: rep.spec.OperatingPoint,
			Requests:       rep.requests,
			Hits:           cs.Hits,
			Misses:         cs.Misses,
			Coalesced:      rep.coalesced,
			EngineRuns:     rep.engine,
			EnergyJoules:   round6(repJ),
			MaxQueue:       rep.maxQueue,
		}
		if cs.Hits+cs.Misses > 0 {
			rr.HitRate = round6(float64(cs.Hits) / float64(cs.Hits+cs.Misses))
		}
		if s.makespan > 0 {
			rr.BusyFrac = round6(rep.busyTime / s.makespan)
		}
		pr.Replicas = append(pr.Replicas, rr)
	}
	if hits+misses > 0 {
		pr.CacheHitRate = round6(float64(hits) / float64(hits+misses))
	}
	if n > 0 {
		pr.CoalesceRatio = round6(float64(coalesced) / float64(n))
		pr.EnergyPerRequest = round6(totalJ / float64(n))
	}
	pr.EnergyJoules = round6(totalJ)
	return pr, nil
}
