package microbench

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// probeScore measures a tuning's two probes as one batch on the
// engine's sequential stream and combines their throughputs
// geometrically, as AutoTune's batchScore does for each fresh tuning.
func probeScore(eng *sim.Engine, prec machine.Precision, t sim.Tuning) (float64, error) {
	var specs [2]sim.KernelSpec
	specs[0], specs[1] = probeSpecs(prec, t)
	var runs [2]sim.Run
	if err := eng.RunBatch(nil, specs[:], runs[:]); err != nil {
		return 0, err
	}
	fl := specs[0].W / float64(runs[0].Duration)
	bw := specs[1].Q / float64(runs[1].Duration)
	return math.Sqrt(fl * bw), nil
}

// autoTuneEveryVisit is the pre-memoization search, preserved verbatim:
// every grid cell and every hill-climb proposal is probed, even when
// the tuning was already scored.
func autoTuneEveryVisit(eng *sim.Engine, prec machine.Precision) (sim.Tuning, float64, error) {
	best := sim.Tuning{Threads: 256, BlockSize: 64, Unroll: 4, RequestsPerThread: 2}
	bestScore, err := probeScore(eng, prec, best)
	if err != nil {
		return sim.Tuning{}, 0, err
	}
	for _, th := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		for _, bs := range []int{32, 64, 128, 256, 512} {
			t := sim.Tuning{Threads: th, BlockSize: bs, Unroll: best.Unroll, RequestsPerThread: best.RequestsPerThread}
			s, err := probeScore(eng, prec, t)
			if err != nil {
				return sim.Tuning{}, 0, err
			}
			if s > bestScore {
				best, bestScore = t, s
			}
		}
	}
	improved := true
	for iter := 0; improved && iter < 16; iter++ {
		improved = false
		for _, cand := range neighbours(best) {
			s, err := probeScore(eng, prec, cand)
			if err != nil {
				return sim.Tuning{}, 0, err
			}
			if s > bestScore*(1+1e-9) {
				best, bestScore = cand, s
				improved = true
			}
		}
	}
	return best, eng.TuningQuality(best), nil
}

// TestAutoTuneMemoEquivalence pins the memoization satellite: for every
// catalog machine and several seeds, the memoized AutoTune picks the
// same tuning with the same quality as the probe-every-visit search.
// (Skipped re-probes do shift the engine's shared noise stream for
// later probes, so this equivalence is empirical — which is exactly why
// it is pinned here and by the campaign goldens.)
func TestAutoTuneMemoEquivalence(t *testing.T) {
	for name, m := range machine.Catalog() {
		for seed := int64(1); seed <= 4; seed++ {
			e1, err := sim.New(m, sim.DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			e2, err := sim.New(m, sim.DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			gotT, gotQ, err := AutoTune(e1, machine.Single)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			wantT, wantQ, err := autoTuneEveryVisit(e2, machine.Single)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			if gotT != wantT || gotQ != wantQ {
				t.Errorf("%s seed %d: memoized AutoTune = (%+v, %v), every-visit = (%+v, %v)",
					name, seed, gotT, gotQ, wantT, wantQ)
			}
		}
	}
}
