package cluster

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// Scenario is one named fleet experiment: a replica set, a workload
// spec, and the policies to compare.
type Scenario struct {
	// Name identifies the scenario (`fleetsim -scenario <name>`).
	Name string
	// Desc states what the scenario stresses.
	Desc string
	// Replicas is the fleet, in index order.
	Replicas []ReplicaSpec
	// Workload is the traffic spec driven through the fleet.
	Workload workload.Spec
	// Policies lists the routing policies to compare, in report order;
	// empty means PolicyNames().
	Policies []string
}

// Validate reports whether the scenario is runnable: at least one
// replica on a known machine (and operating point), a valid workload,
// and known policies.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("cluster: scenario needs a name")
	}
	if len(sc.Replicas) == 0 {
		return fmt.Errorf("cluster: scenario %q has no replicas", sc.Name)
	}
	for i, spec := range sc.Replicas {
		if _, err := resolveSpec(i, spec); err != nil {
			return err
		}
	}
	if err := sc.Workload.Validate(); err != nil {
		return fmt.Errorf("cluster: scenario %q workload: %v", sc.Name, err)
	}
	for _, name := range sc.Policies {
		if _, err := NewPolicy(name, len(sc.Replicas), 0); err != nil {
			return err
		}
	}
	return nil
}

// i7Replicas builds n identical i7-950 replicas with a cache sized to
// entries.
func i7Replicas(n, entries int) []ReplicaSpec {
	reps := make([]ReplicaSpec, n)
	for i := range reps {
		reps[i] = ReplicaSpec{Machine: "i7-950", CacheEntries: entries}
	}
	return reps
}

// Scenarios returns the scenario catalog keyed by name. The *_1m
// entries drive one million requests through at least eight replicas —
// the fleet-scale runs behind BENCH_cluster.json — while smoke is the
// small variant tests and CI exercise.
func Scenarios() map[string]Scenario {
	base := workload.Spec{
		Kind:        workload.Poisson,
		Rate:        300,
		Requests:    1 << 20,
		Keys:        50000,
		ZipfS:       1.1,
		WorkFlops:   1e9,
		LoIntensity: 0.5,
		HiIntensity: 8,
		Seed:        2026,
	}

	smokeWL := base
	smokeWL.Requests = 20000
	smokeWL.Rate = 200
	smokeWL.Keys = 2000

	burstWL := base
	burstWL.Kind = workload.MMPP
	burstWL.Rate = 150
	burstWL.BurstRate = 900
	burstWL.CalmDwell = 20
	burstWL.BurstDwell = 4

	closedWL := base
	closedWL.Kind = workload.Closed
	closedWL.Clients = 512
	closedWL.ThinkSeconds = 1.0

	heteroWL := base
	heteroWL.Rate = 500

	hetero := append(i7Replicas(4, 4096), make([]ReplicaSpec, 4)...)
	for i := 4; i < 8; i++ {
		hetero[i] = ReplicaSpec{Machine: "gtx580", CacheEntries: 4096}
	}

	// heteroDVFS mixes base-clock replicas with pinned operating points
	// from the DVFS catalog: downclocked full GPUs trade peak flops for a
	// lower π0 draw, and a half-off multi-SM part covers memory-bound work
	// at the lowest power floor in the fleet.
	heteroDVFS := append(i7Replicas(2, 4096), make([]ReplicaSpec, 6)...)
	for i, pin := range []struct{ machine, point string }{
		{"gtx580", ""}, {"gtx580", ""},
		{"gtx580", "0.70x"}, {"gtx580", "0.70x"},
		{"gtx580-4sm", "0.55x"}, {"gtx580-4sm", "0.55x"},
	} {
		heteroDVFS[2+i] = ReplicaSpec{Machine: pin.machine, CacheEntries: 4096, OperatingPoint: pin.point}
	}

	return map[string]Scenario{
		"smoke": {
			Name:     "smoke",
			Desc:     "4 i7-950 replicas, 20k Poisson requests: the fast CI/test variant",
			Replicas: i7Replicas(4, 1024),
			Workload: smokeWL,
		},
		"cluster_1m": {
			Name:     "cluster_1m",
			Desc:     "8 i7-950 replicas, 1M Poisson requests over a 50k-key Zipf universe",
			Replicas: i7Replicas(8, 4096),
			Workload: base,
		},
		"burst_1m": {
			Name:     "burst_1m",
			Desc:     "8 i7-950 replicas, 1M MMPP requests bursting 150 to 900 rps",
			Replicas: i7Replicas(8, 4096),
			Workload: burstWL,
		},
		"closed_1m": {
			Name:     "closed_1m",
			Desc:     "8 i7-950 replicas, 1M requests from 512 closed-loop clients",
			Replicas: i7Replicas(8, 4096),
			Workload: closedWL,
		},
		"hetero_1m": {
			Name:     "hetero_1m",
			Desc:     "4 i7-950 + 4 gtx580 replicas, 1M Poisson requests: the energy-aware policy's home turf",
			Replicas: hetero,
			Workload: heteroWL,
		},
		"hetero_dvfs": {
			Name:     "hetero_dvfs",
			Desc:     "2 i7-950 + 2 gtx580 + 2 gtx580@0.70x + 2 gtx580-4sm@0.55x, 1M Poisson requests: DVFS-pinned replicas priced per operating point",
			Replicas: heteroDVFS,
			Workload: heteroWL,
		},
	}
}

// PinMaxFrequency returns a copy of sc with every replica's operating
// point cleared, i.e. the same fleet forced to run flat out at base
// clock. Comparing a DVFS scenario against its pinned-max variant
// isolates what frequency pinning buys (or costs) at fixed topology,
// workload, and routing policy.
func PinMaxFrequency(sc Scenario) Scenario {
	out := sc
	out.Replicas = append([]ReplicaSpec(nil), sc.Replicas...)
	for i := range out.Replicas {
		out.Replicas[i].OperatingPoint = ""
	}
	return out
}

// ScenarioNames returns the catalog's keys sorted.
func ScenarioNames() []string {
	m := Scenarios()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
