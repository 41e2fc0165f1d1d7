package cluster

import (
	"math"

	"repro/internal/core"
	"repro/internal/rescache"
	"repro/internal/workload"
)

// Pricing a request depends only on its kernel and on the spec of the
// replica it lands on, so RunScenario prices every (spec, kernel) pair
// once, before any policy cell starts, and the event loop reads the
// results by index. Fleet.estimate and replica.key stay as the scalar
// oracle the tests hold these tables to, bit for bit.

// kernelIndex numbers a trace's distinct kernels densely.
type kernelIndex struct {
	// ids maps each trace request to its kernel id.
	ids []int32
	// work and intensity hold each kernel's request fields, by id in
	// first-appearance order.
	work, intensity []float64
}

// indexKernels assigns one id per distinct (Work, Intensity) bit pair,
// in first-appearance order. It keys on the kernel's bits rather than
// Request.Key, so a replayed trace whose keys and kernels disagree
// still prices exactly as the scalar path would.
//
// The index is an append-only open-addressed table of id+1, with 0
// marking an empty bucket, probed linearly from a hash of the bit pair.
// A probe compares the pair against ix.work and ix.intensity, so the
// index is exact. The table is at most half full: it doubles when a new
// kernel would pass that.
func indexKernels(reqs []workload.Request) kernelIndex {
	ix := kernelIndex{ids: make([]int32, len(reqs))}
	log2 := uint(3)
	table := ix.table(log2)
	for i, r := range reqs {
		w, in := math.Float64bits(r.Work), math.Float64bits(r.Intensity)
		mask := len(table) - 1
		b := kernelHome(w, in, log2)
		id := table[b] - 1
		for id >= 0 && (math.Float64bits(ix.work[id]) != w || math.Float64bits(ix.intensity[id]) != in) {
			b = (b + 1) & mask
			id = table[b] - 1
		}
		if id < 0 {
			id = int32(len(ix.work))
			ix.work = append(ix.work, r.Work)
			ix.intensity = append(ix.intensity, r.Intensity)
			table[b] = id + 1
			if 2*len(ix.work) > len(table) {
				log2++
				table = ix.table(log2)
			}
		}
		ix.ids[i] = id
	}
	return ix
}

// table returns an index of ix's kernels with 2^log2 buckets.
func (ix *kernelIndex) table(log2 uint) []int32 {
	t := make([]int32, 1<<log2)
	for id, w := range ix.work {
		b := kernelHome(math.Float64bits(w), math.Float64bits(ix.intensity[id]), log2)
		for t[b] != 0 {
			b = (b + 1) & (len(t) - 1)
		}
		t[b] = int32(id) + 1
	}
	return t
}

// kernelHome returns the home bucket of a kernel's (Work, Intensity)
// bits in a table of 2^log2 buckets: the top bits of a Fibonacci hash
// that folds in both words.
func kernelHome(w, in uint64, log2 uint) int {
	const fib = 0x9E3779B97F4A7C15
	return int((w*fib ^ in) * fib >> (64 - log2))
}

// kernelPrice is what one replica spec's pricing says about one kernel.
type kernelPrice struct {
	// key is the production cache and coalescing key (rescache.EvalKey).
	key uint64
	// svc is the CappedTime: the simulated service time, and the
	// router's estimate of a miss's run time.
	svc float64
	// joules is the CappedEnergy one engine run is charged, and the
	// router's estimate of a miss's energy.
	joules float64
}

// specPrices is what RunScenario resolves once per distinct replica
// spec: the parameters the replica serves at and its price table.
type specPrices struct {
	params core.Params
	table  []kernelPrice
}

// priceReplicas resolves each replica's spec and prices it over the
// indexed kernels. Replicas with equal specs share one read-only
// specPrices, which every policy cell reads concurrently.
func priceReplicas(specs []ReplicaSpec, ix kernelIndex) ([]*specPrices, error) {
	bySpec := make(map[ReplicaSpec]*specPrices)
	out := make([]*specPrices, len(specs))
	prec := replicaPrecision.String()
	for i, spec := range specs {
		if sp, ok := bySpec[spec]; ok {
			out[i] = sp
			continue
		}
		params, err := resolveSpec(i, spec)
		if err != nil {
			return nil, err
		}
		t := make([]kernelPrice, len(ix.work))
		for k, w := range ix.work {
			kern := core.KernelAt(w, ix.intensity[k])
			t[k] = kernelPrice{
				key:    rescache.EvalKey(spec.Machine, prec, w, ix.intensity[k]),
				svc:    params.CappedTime(kern),
				joules: params.CappedEnergy(kern),
			}
		}
		sp := &specPrices{params: params, table: t}
		bySpec[spec] = sp
		out[i] = sp
	}
	return out, nil
}
