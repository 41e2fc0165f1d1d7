package cluster

import (
	"context"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// propTrials is the randomized-trial count for each routing property.
// Trials are seeded deterministically from the trial index, so a
// failure reproduces exactly.
const propTrials = 300

// TestRingMinimalDisruptionProperty pins the consistent-hash ring's
// reason for existing, exactly: removing one replica remaps only the
// keys that replica owned (about K/N of them) and every other key
// keeps its owner. 300 randomized (fleet size, seed) trials.
func TestRingMinimalDisruptionProperty(t *testing.T) {
	const keysPerTrial = 1000
	for trial := 0; trial < propTrials; trial++ {
		r := stats.DeriveRand(int64(trial), stats.HashLabel("ring-prop"))
		n := 2 + r.Intn(15) // 2..16 replicas
		seed := int64(stats.DeriveState(int64(trial), 1))
		ring := NewRing(n, seed)
		removed := r.Intn(n)
		shrunk := ring.Without(removed)

		remapped := 0
		for k := 0; k < keysPerTrial; k++ {
			key := stats.DeriveState(int64(trial), 2, uint64(k))
			before := ring.Lookup(key)
			after := shrunk.Lookup(key)
			if before == removed {
				remapped++
				if after == removed {
					t.Fatalf("trial %d: key still maps to removed replica %d", trial, removed)
				}
				continue
			}
			if after != before {
				t.Fatalf("trial %d (n=%d, removed=%d): key %#x moved %d -> %d without its owner leaving",
					trial, n, removed, key, before, after)
			}
		}
		// The exact property above is the strong form; also sanity-check
		// the load share: the removed replica owned roughly K/N keys.
		// 4x leaves room for vnode variance at small K.
		if bound := 4 * keysPerTrial / n; remapped > bound {
			t.Fatalf("trial %d: removing 1 of %d replicas remapped %d/%d keys (bound %d)",
				trial, n, remapped, keysPerTrial, bound)
		}
	}
}

// propScenario builds a small randomized scenario for the policy
// properties: 2–6 i7-950 replicas under short Zipf Poisson traffic.
func propScenario(trial int, policies []string) Scenario {
	r := stats.DeriveRand(int64(trial), stats.HashLabel("policy-prop"))
	n := 2 + r.Intn(5)
	return Scenario{
		Name:     "prop",
		Desc:     "randomized property trial",
		Replicas: i7Replicas(n, 512),
		Workload: workload.Spec{
			Kind:        workload.Poisson,
			Rate:        50 + 400*r.Float64(),
			Requests:    1200,
			Keys:        50 + r.Intn(400),
			ZipfS:       0.8 + 0.6*r.Float64(),
			WorkFlops:   1e9,
			LoIntensity: 0.5,
			HiIntensity: 8,
			Seed:        int64(stats.DeriveState(int64(trial), 3)),
		},
		Policies: policies,
	}
}

// TestCacheAffinityBeatsRoundRobinProperty checks the economic claim
// behind the affinity policy on 300 randomized Zipf workloads: pinning
// a key's traffic to one replica's cache never yields a worse aggregate
// hit rate than spraying it round-robin across the fleet.
func TestCacheAffinityBeatsRoundRobinProperty(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		sc := propScenario(trial, []string{CacheAffinity, RoundRobin})
		rep, err := RunScenario(context.Background(), sc, Options{Workers: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		affinity, rr := rep.Policies[0], rep.Policies[1]
		if affinity.CacheHitRate+1e-9 < rr.CacheHitRate {
			t.Fatalf("trial %d (replicas=%d, keys=%d, zipf=%.2f): affinity hit rate %.4f < round-robin %.4f",
				trial, len(sc.Replicas), sc.Workload.Keys, sc.Workload.ZipfS,
				affinity.CacheHitRate, rr.CacheHitRate)
		}
	}
}

// TestLeastLoadedArgminProperty audits every routing decision the
// least-loaded policy makes across 300 randomized trials: the chosen
// replica always has the fleet-minimum queue occupancy at decision
// time (ties to the lowest index), which is exactly the "never exceeds
// the max-queue bound" guarantee — no replica's queue can grow while a
// shorter queue exists anywhere in the fleet.
func TestLeastLoadedArgminProperty(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		sc := propScenario(trial, []string{LeastLoaded})
		decisions := 0
		opts := Options{
			Workers: 1,
			routeObserver: func(now float64, req workload.Request, chosen int, f *Fleet) {
				decisions++
				min, argmin := f.QueueLen(0), 0
				for i := 1; i < f.NumReplicas(); i++ {
					if l := f.QueueLen(i); l < min {
						min, argmin = l, i
					}
				}
				if chosen != argmin {
					t.Fatalf("trial %d decision %d: chose replica %d (queue %d), argmin is %d (queue %d)",
						trial, decisions, chosen, f.QueueLen(chosen), argmin, min)
				}
			},
		}
		if _, err := RunScenario(context.Background(), sc, opts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if decisions != sc.Workload.Requests {
			t.Fatalf("trial %d: observed %d decisions for %d requests", trial, decisions, sc.Workload.Requests)
		}
	}
}
