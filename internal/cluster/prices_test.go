package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rescache"
	"repro/internal/workload"
)

// estimate is the scalar oracle for Fleet.estimateInto: it predicts
// (completion latency, marginal energy) for sending req to replica i
// now, pricing a miss with the EnergyModel em. A predicted cache hit
// costs the hit latency and its idle-power energy; a miss waits out the
// replica's pending work and then runs the kernel, costing em's capped
// time and energy predictions (eq. 6/9 under the default analytic
// model). Unlike estimateInto it reads no price table.
func (f *Fleet) estimate(now float64, i int, em model.EnergyModel, req workload.Request) (t, e float64) {
	rep := f.reps[i]
	if rep.cache.Peek(rep.key(req)) {
		return f.hitLatency, rep.params.Pi0 * f.hitLatency
	}
	k := core.KernelAt(req.Work, req.Intensity)
	return rep.pendingWork(now) + em.CappedTime(k), em.CappedEnergy(k)
}

// key recomputes the cache/coalescing key a replica uses for req, the
// hash the live server's POST /v1/eval handler uses. The event loop
// reads the same key from the replica's price table.
func (r *replica) key(req workload.Request) uint64 {
	return rescache.EvalKey(r.spec.Machine, r.spec.precisionName(), req.Work, req.Intensity)
}

// multiSpecRequests is the request count the multi-spec fleets run at.
const multiSpecRequests = 20000

// specFleet is a scenario with the trace it runs on and what its
// energy-aware run must show to test what the fleet is there for.
type specFleet struct {
	sc Scenario
	tr *workload.Trace
	// evicts requires some replica cache to evict, so that holder bits
	// go stale; routesPast63 requires some request to be routed past
	// replica 63, into the holder bitset's second word.
	evicts, routesPast63 bool
}

// multiSpecFleets returns fleets whose replicas differ in spec — and so
// read different price tables — each with its own trace: hetero_1m,
// hetero_dvfs, hetero_1m with one i7-950 and one gtx580 routed on a
// blackbox model, hetero_1m replaying a trace in which two distinct
// Keys share one (Work, Intensity) pair, hetero_1m with 8-entry caches,
// and 64 i7-950 replicas followed by 8 gtx580 replicas. The last two
// are there for the holder bits: the first evicts, so bits go stale,
// and the second routes past replica 63, into a second bitset word. A
// tiled hetero fleet would not do for that, as the router never leaves
// the lowest-index equal replica.
func multiSpecFleets(t *testing.T) []specFleet {
	t.Helper()
	catalog := Scenarios()
	hetero, dvfs := catalog["hetero_1m"], catalog["hetero_dvfs"]
	hetero.Workload.Requests = multiSpecRequests
	dvfs.Workload.Requests = multiSpecRequests

	blackbox := hetero
	blackbox.Name = "hetero_blackbox"
	blackbox.Replicas = append([]ReplicaSpec(nil), hetero.Replicas...)
	blackbox.Replicas[1].Model = model.BlackboxName
	blackbox.Replicas[5].Model = model.BlackboxName

	replay := hetero
	replay.Name = "hetero_shared_kernel"

	evicting := hetero
	evicting.Name = "hetero_evicting"
	evicting.Replicas = append([]ReplicaSpec(nil), hetero.Replicas...)
	for i := range evicting.Replicas {
		evicting.Replicas[i].CacheEntries = 8
	}

	wide := hetero
	wide.Name = "hetero_wide"
	wide.Replicas = i7Replicas(64, 4096)
	for i := 0; i < 8; i++ {
		wide.Replicas = append(wide.Replicas, hetero.Replicas[4])
	}

	var out []specFleet
	for _, sc := range []Scenario{hetero, dvfs, blackbox, replay, evicting, wide} {
		tr, err := workload.Generate(sc.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name == replay.Name {
			shareKernel(t, tr)
		}
		out = append(out, specFleet{sc: sc, tr: tr, evicts: sc.Name == evicting.Name, routesPast63: sc.Name == wide.Name})
	}
	return out
}

// shareKernel rewrites tr so the second most frequent key carries the
// most frequent key's (Work, Intensity): two distinct Keys, one kernel.
// It checks the kernel index gives both keys one id.
func shareKernel(t *testing.T, tr *workload.Trace) {
	t.Helper()
	counts := map[uint64]int{}
	for _, r := range tr.Requests {
		counts[r.Key]++
	}
	var a, b uint64
	for k, n := range counts {
		switch {
		case n > counts[a] || (n == counts[a] && k < a):
			a, b = k, a
		case n > counts[b] || (n == counts[b] && k < b):
			b = k
		}
	}
	var work, intensity float64
	for _, r := range tr.Requests {
		if r.Key == a {
			work, intensity = r.Work, r.Intensity
			break
		}
	}
	for i := range tr.Requests {
		if tr.Requests[i].Key == b {
			tr.Requests[i].Work, tr.Requests[i].Intensity = work, intensity
		}
	}
	ix := indexKernels(tr.Requests)
	ids := map[uint64]int32{}
	for i, r := range tr.Requests {
		if r.Key == a || r.Key == b {
			ids[r.Key] = ix.ids[i]
		}
	}
	if a == b || ids[a] != ids[b] || len(ix.work) != len(counts)-1 {
		t.Fatalf("keys %#x and %#x got kernel ids %d and %d; %d kernels for %d keys",
			a, b, ids[a], ids[b], len(ix.work), len(counts))
	}
}

// bitsEqual compares two floats by bit pattern.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPriceTablesMatchScalarOracle holds the table-priced fast paths to
// the scalar oracle bit for bit, on every multi-spec fleet:
//
//  1. every request's table entry equals what the replica's scalar
//     path computes from the request itself: the EvalKey hash, the
//     analytic CappedTime and CappedEnergy, and the spec's EnergyModel
//     beliefs;
//  2. on every routing decision of the energy-aware policy, the
//     estimate columns it routed on equal Fleet.estimate for every
//     replica, so a holder bit never hides a hit and never stands in
//     for a Peek.
//
// It also checks that the evicting fleet evicted and that the wide
// fleet routed past replica 63, without which those fleets test
// nothing the others do not.
func TestPriceTablesMatchScalarOracle(t *testing.T) {
	for _, fl := range multiSpecFleets(t) {
		sc, tr := fl.sc, fl.tr
		ix := indexKernels(tr.Requests)
		prices, err := priceReplicas(sc.Replicas, ix)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for r, spec := range sc.Replicas {
			params, em, err := resolveSpec(r, spec)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			rep := &replica{spec: spec, params: params, model: em}
			for i, req := range tr.Requests {
				p := prices[r].table[ix.ids[i]]
				k := core.KernelAt(req.Work, req.Intensity)
				if p.key != rep.key(req) ||
					!bitsEqual(p.svc, rep.params.CappedTime(k)) || !bitsEqual(p.joules, rep.params.CappedEnergy(k)) ||
					!bitsEqual(p.estT, rep.model.CappedTime(k)) || !bitsEqual(p.estE, rep.model.CappedEnergy(k)) {
					t.Fatalf("%s replica %d request %d: table entry %+v differs from the scalar path", sc.Name, r, i, p)
				}
			}
		}

		sc.Policies = []string{EnergyAware}
		decisions, maxChosen := 0, 0
		var fleet *Fleet
		opts := Options{
			Workers: 1,
			Trace:   tr,
			routeObserver: func(now float64, req workload.Request, chosen int, f *Fleet) {
				decisions++
				fleet, maxChosen = f, max(maxChosen, chosen)
				for i := range f.reps {
					wt, we := f.estimate(now, i, f.reps[i].model, req)
					if !bitsEqual(f.estT[i], wt) || !bitsEqual(f.estE[i], we) {
						t.Fatalf("%s decision %d replica %d: table estimate (%g, %g), scalar oracle (%g, %g)",
							sc.Name, decisions, i, f.estT[i], f.estE[i], wt, we)
					}
				}
			},
		}
		if _, err := RunScenario(context.Background(), sc, opts); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if decisions != len(tr.Requests) {
			t.Fatalf("%s: observed %d decisions for %d requests", sc.Name, decisions, len(tr.Requests))
		}
		var evictions uint64
		for _, rep := range fleet.reps {
			evictions += rep.cache.Stats().Evictions
		}
		if fl.evicts && evictions == 0 {
			t.Fatalf("%s: no replica cache evicted", sc.Name)
		}
		if fl.routesPast63 && maxChosen < 64 {
			t.Fatalf("%s: no request routed past replica 63 (highest %d)", sc.Name, maxChosen)
		}
	}
}
