package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Routing policy names accepted by NewPolicy and Scenario.Policies.
const (
	// RoundRobin cycles through replicas in index order.
	RoundRobin = "round_robin"
	// LeastLoaded sends each request to the replica with the shortest
	// queue (ties to the lowest index).
	LeastLoaded = "least_loaded"
	// CacheAffinity routes by consistent hash of the request's content
	// key, so a key's traffic concentrates on one replica's cache.
	CacheAffinity = "cache_affinity"
	// EnergyAware scores candidate replicas with the roofline energy
	// model and applies the paper's eq. 10 trade-off vocabulary to pick
	// a destination (see energyAware.Route).
	EnergyAware = "energy_aware"
)

// PolicyNames lists every routing policy in canonical report order.
func PolicyNames() []string {
	return []string{RoundRobin, LeastLoaded, CacheAffinity, EnergyAware}
}

// Policy routes one request to a replica index. Route is called from
// the single-threaded event loop at the request's arrival instant; the
// fleet argument exposes probes (queue lengths, pending work, cache
// occupancy) and implementations must not change replica state. req
// points into the trace and must not be modified.
type Policy interface {
	// Name returns the policy's canonical name.
	Name() string
	// Route picks the destination replica for req at simulation time now.
	Route(now float64, req *workload.Request, f *Fleet) int
}

// NewPolicy builds the named policy for a fleet of n replicas. The seed
// parameterises any derived structure (the cache-affinity ring); equal
// (name, n, seed) triples build identical policies.
func NewPolicy(name string, n int, seed int64) (Policy, error) {
	switch name {
	case RoundRobin:
		return &roundRobin{n: n}, nil
	case LeastLoaded:
		return leastLoaded{}, nil
	case CacheAffinity:
		return &cacheAffinity{ring: NewRing(n, seed)}, nil
	case EnergyAware:
		return energyAware{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// roundRobin cycles a counter over the replica indices.
type roundRobin struct {
	n    int
	next int
}

// Name implements Policy.
func (p *roundRobin) Name() string { return RoundRobin }

// Route implements Policy.
func (p *roundRobin) Route(_ float64, _ *workload.Request, _ *Fleet) int {
	r := p.next
	p.next = (p.next + 1) % p.n
	return r
}

// leastLoaded picks the replica with the fewest requests in service or
// queued, breaking ties toward the lowest index.
type leastLoaded struct{}

// Name implements Policy.
func (leastLoaded) Name() string { return LeastLoaded }

// Route implements Policy.
func (leastLoaded) Route(_ float64, _ *workload.Request, f *Fleet) int {
	best, bestLen := 0, f.reps[0].queueLen()
	for i := 1; i < len(f.reps); i++ {
		if l := f.reps[i].queueLen(); l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// cacheAffinity routes by consistent hash of the content key.
type cacheAffinity struct {
	ring *Ring
}

// Name implements Policy.
func (p *cacheAffinity) Name() string { return CacheAffinity }

// Route implements Policy.
func (p *cacheAffinity) Route(_ float64, req *workload.Request, _ *Fleet) int {
	return p.ring.Lookup(req.Key)
}

// energyAware scores every replica with the roofline model and keeps a
// running incumbent, applying the paper's eq. 10 classification to each
// challenger.
type energyAware struct{}

// Name implements Policy.
func (energyAware) Name() string { return EnergyAware }

// estimateInto gathers the per-replica (time, energy) estimates for the
// request being routed into the fleet's scratch columns, growing them
// only on the first call for a given fleet size. Each replica's
// estimate reads its price table at f.kernel: a miss waits out the
// replica's pending work and then costs the kernel's capped time and
// energy, the same closed forms the replica serves with. Only replicas
// whose holder bit is set are probed for a hit; a probe that misses
// clears the bit (see Fleet.holders). Every column equals what the
// scalar oracle Fleet.estimate (prices_test.go) computes, bit for bit;
// the lockstep tests pin that on every routing decision.
func (f *Fleet) estimateInto(now float64) (t, e []float64) {
	n := len(f.reps)
	if cap(f.estT) < n {
		f.estT = make([]float64, n)
		f.estE = make([]float64, n)
	}
	t, e = f.estT[:n], f.estE[:n]
	held := f.holders[int(f.kernel)*f.words:]
	for i, rep := range f.reps {
		p := &rep.prices[f.kernel]
		if w, bit := &held[i/64], uint64(1)<<(i%64); *w&bit != 0 {
			if rep.cache.Peek(p.key) {
				t[i], e[i] = hitLatency, rep.params.Pi0*hitLatency
				continue
			}
			*w &^= bit
		}
		t[i], e[i] = rep.pendingWork(now)+p.svc, p.joules
	}
	return t, e
}

// routeFromEstimates runs the incumbent scan over gathered (time,
// energy) columns. Replica 0 opens as the incumbent; each challenger's
// speedup and greenup ratios against the incumbent are classified with
// core.ClassifyRatios per eq. 10. A challenger that achieves Both always
// wins; GreenupOnly wins if it costs at most 2x the incumbent's latency
// (spend time to save energy, boundedly); SpeedupOnly wins if it gives
// back at most 5% of the energy. Neither never wins. The scan order is
// fixed, so the decision is deterministic.
func routeFromEstimates(t, e []float64) int {
	best := 0
	bestT, bestE := t[0], e[0]
	for i := 1; i < len(t); i++ {
		ti, ei := t[i], e[i]
		speedup, greenup := bestT/ti, bestE/ei
		switch core.ClassifyRatios(speedup, greenup) {
		case core.Both:
			best, bestT, bestE = i, ti, ei
		case core.GreenupOnly:
			if ti <= 2*bestT {
				best, bestT, bestE = i, ti, ei
			}
		case core.SpeedupOnly:
			if greenup >= 0.95 {
				best, bestT, bestE = i, ti, ei
			}
		}
	}
	return best
}

// Route implements Policy: it gathers every replica's estimate into the
// fleet's scratch columns and applies the eq. 10 incumbent scan (see
// routeFromEstimates).
func (energyAware) Route(now float64, _ *workload.Request, f *Fleet) int {
	t, e := f.estimateInto(now)
	return routeFromEstimates(t, e)
}
