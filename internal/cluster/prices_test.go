package cluster

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rescache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// estimate is the scalar oracle for Fleet.estimateInto: it predicts
// (completion latency, marginal energy) for sending req to replica i
// now. A predicted cache hit costs the hit latency and its idle-power
// energy; a miss waits out the replica's pending work and then runs the
// kernel, costing the replica's capped time and energy (eq. 6/9).
// Unlike estimateInto it reads no price table.
func (f *Fleet) estimate(now float64, i int, req workload.Request) (t, e float64) {
	rep := f.reps[i]
	if rep.cache.Peek(rep.key(req)) {
		return hitLatency, rep.params.Pi0 * hitLatency
	}
	k := core.KernelAt(req.Work, req.Intensity)
	return rep.pendingWork(now) + rep.params.CappedTime(k), rep.params.CappedEnergy(k)
}

// key recomputes the cache/coalescing key a replica uses for req, the
// hash the live server's POST /v1/eval handler uses for a double
// precision request. The event loop reads the same key from the
// replica's price table.
func (r *replica) key(req workload.Request) uint64 {
	return rescache.EvalKey(r.spec.Machine, "double", req.Work, req.Intensity)
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
// hetero_dvfs, hetero_1m replaying a trace in which two distinct Keys
// share one (Work, Intensity) pair, hetero_1m with 8-entry caches, and
// 64 i7-950 replicas followed by 8 gtx580 replicas. The last two
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
	for _, sc := range []Scenario{hetero, dvfs, replay, evicting, wide} {
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

// indexKernelsMap is the map-keyed indexKernels that the open-addressed
// table replaced, kept as the oracle TestKernelIndexMatchesMapOracle
// holds it to. Apart from its name and this paragraph, it is the
// replaced code verbatim.
//
// indexKernels assigns one id per distinct (Work, Intensity) bit pair.
// It keys on the kernel's bits rather than Request.Key, so a replayed
// trace whose keys and kernels disagree still prices exactly as the
// scalar path would.
func indexKernelsMap(reqs []workload.Request) kernelIndex {
	ix := kernelIndex{ids: make([]int32, len(reqs))}
	seen := make(map[[2]uint64]int32)
	for i, r := range reqs {
		bits := [2]uint64{math.Float64bits(r.Work), math.Float64bits(r.Intensity)}
		id, ok := seen[bits]
		if !ok {
			id = int32(len(ix.work))
			seen[bits] = id
			ix.work = append(ix.work, r.Work)
			ix.intensity = append(ix.intensity, r.Intensity)
		}
		ix.ids[i] = id
	}
	return ix
}

// TestKernelIndexMatchesMapOracle holds indexKernels to the map-keyed
// oracle: the same id for every request and the same kernel columns,
// bit for bit, on cluster_1m's trace, on the replay trace in which two
// keys share one (Work, Intensity), and on a synthetic trace of more
// than 2^15 distinct kernels, each first in order and then drawn with
// repeats, whose table doubles from 8 to 131,072 buckets. The synthetic
// kernels share Work or Intensity words in long runs and include -0,
// +Inf and NaN payloads, which only a comparison of bits tells apart.
func TestKernelIndexMatchesMapOracle(t *testing.T) {
	traces := map[string][]workload.Request{}
	if !raceEnabled {
		tr, err := workload.Generate(Scenarios()["cluster_1m"].Workload)
		if err != nil {
			t.Fatal(err)
		}
		traces["cluster_1m"] = tr.Requests
	}
	for _, fl := range multiSpecFleets(t) {
		if fl.sc.Name == "hetero_shared_kernel" {
			traces[fl.sc.Name] = fl.tr.Requests
		}
	}
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff8000000000001)}
	r := stats.NewRand(27)
	const distinct = 40000
	var synthetic []workload.Request
	for i := 0; i < 3*distinct; i++ {
		k := r.Intn(distinct)
		if i < distinct {
			k = i // every kernel appears, the first ones in order
		}
		w, in := float64(k/200+1), float64(k%200)/8
		if k%97 == 0 {
			w = specials[k/97%len(specials)]
		}
		if k%89 == 0 {
			in = specials[k/89%len(specials)]
		}
		synthetic = append(synthetic, workload.Request{Key: uint64(k), Work: w, Intensity: in})
	}
	traces["synthetic"] = synthetic

	for name, reqs := range traces {
		got, want := indexKernels(reqs), indexKernelsMap(reqs)
		if !slices.Equal(got.ids, want.ids) {
			t.Errorf("%s: kernel ids differ from the map oracle's", name)
		}
		if len(got.work) != len(want.work) || len(got.intensity) != len(want.intensity) {
			t.Fatalf("%s: %d kernels, oracle %d", name, len(got.work), len(want.work))
		}
		for id := range want.work {
			if !bitsEqual(got.work[id], want.work[id]) || !bitsEqual(got.intensity[id], want.intensity[id]) {
				t.Fatalf("%s: kernel %d is (%v, %v), oracle (%v, %v)", name, id, got.work[id], got.intensity[id], want.work[id], want.intensity[id])
			}
		}
		t.Logf("%s: %d requests, %d kernels", name, len(reqs), len(got.work))
	}
	// More than 2^15 kernels double the table from 8 buckets to 2^17.
	if n := len(indexKernelsMap(synthetic).work); n <= 1<<15 {
		t.Fatalf("synthetic trace has %d distinct kernels, too few to double the table 14 times", n)
	}
}

// bitsEqual compares two floats by bit pattern.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPriceTablesMatchScalarOracle holds the table-priced fast paths to
// the scalar oracle bit for bit, on every multi-spec fleet:
//
//  1. every request's table entry equals what the replica's scalar
//     path computes from the request itself: the EvalKey hash and the
//     CappedTime and CappedEnergy of the spec's parameters;
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
			params, err := resolveSpec(r, spec)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			rep := &replica{spec: spec, params: params}
			for i, req := range tr.Requests {
				p := prices[r].table[ix.ids[i]]
				k := core.KernelAt(req.Work, req.Intensity)
				if p.key != rep.key(req) ||
					!bitsEqual(p.svc, rep.params.CappedTime(k)) || !bitsEqual(p.joules, rep.params.CappedEnergy(k)) {
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
					wt, we := f.estimate(now, i, req)
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
