package cluster

import (
	"math"

	"repro/internal/core"
	"repro/internal/model"
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

// indexKernels assigns one id per distinct (Work, Intensity) bit pair.
// It keys on the kernel's bits rather than Request.Key, so a replayed
// trace whose keys and kernels disagree still prices exactly as the
// scalar path would.
func indexKernels(reqs []workload.Request) kernelIndex {
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

// kernelPrice is what one replica spec's pricing says about one kernel.
type kernelPrice struct {
	// key is the production cache and coalescing key (rescache.EvalKey).
	key uint64
	// svc is the analytic CappedTime: the simulated service time.
	svc float64
	// joules is the analytic CappedEnergy one engine run is charged.
	joules float64
	// estT and estE are the spec's EnergyModel capped time and energy:
	// the router's beliefs about a miss.
	estT, estE float64
}

// specPrices is what RunScenario resolves once per distinct replica
// spec: the parameters the replica serves at, the EnergyModel its
// router prices misses with, and its price table.
type specPrices struct {
	params core.Params
	model  model.EnergyModel
	table  []kernelPrice
}

// priceReplicas resolves each replica's spec and prices it over the
// indexed kernels. Replicas with equal specs share one read-only
// specPrices, which every policy cell reads concurrently.
func priceReplicas(specs []ReplicaSpec, ix kernelIndex) ([]*specPrices, error) {
	bySpec := make(map[ReplicaSpec]*specPrices)
	out := make([]*specPrices, len(specs))
	for i, spec := range specs {
		if sp, ok := bySpec[spec]; ok {
			out[i] = sp
			continue
		}
		params, em, err := resolveSpec(i, spec)
		if err != nil {
			return nil, err
		}
		prec := spec.precisionName()
		t := make([]kernelPrice, len(ix.work))
		for k, w := range ix.work {
			kern := core.KernelAt(w, ix.intensity[k])
			t[k] = kernelPrice{
				key:    rescache.EvalKey(spec.Machine, prec, w, ix.intensity[k]),
				svc:    params.CappedTime(kern),
				joules: params.CappedEnergy(kern),
				estT:   em.CappedTime(kern),
				estE:   em.CappedEnergy(kern),
			}
		}
		sp := &specPrices{params: params, model: em, table: t}
		bySpec[spec] = sp
		out[i] = sp
	}
	return out, nil
}
