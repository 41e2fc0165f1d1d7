// Fit-and-predict: the workflow a performance tuner runs on their own
// machine. Measure a small microbenchmark campaign, fit the eq. (9)
// energy coefficients, and then predict the cost of application-shaped
// kernels — never touching the ground truth — through the pluggable
// EnergyModel interface (docs/MODELS.md): the fitted coefficients
// wrapped as an analytic model side by side with the blackbox
// regression, so the two modelling philosophies answer the same
// queries.
package main

import (
	"fmt"

	roofline "repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

func main() {
	cfg := campaign.Default()
	cfg.Machines = []string{"gtx580"}
	cfg.Reps = 20
	cfg.Points = 9
	cfg.VolumeBytes = 1 << 27
	res, err := campaign.Run(cfg)
	if err != nil {
		panic(err)
	}
	mr := res.Machines[0]
	fmt.Printf("fitted %s from %d observations (worst coefficient error %.1f%%):\n",
		mr.Name, mr.Points, mr.WorstRelErr*100)
	fmt.Printf("  εs=%.1f pJ, εd=%.1f pJ, εmem=%.1f pJ/B, π0=%.1f W\n\n",
		mr.Coefficients.EpsSingle*1e12, mr.Coefficients.EpsDouble*1e12,
		mr.Coefficients.EpsMem*1e12, mr.Coefficients.Pi0)

	// Two EnergyModels built purely from measurements, never the ground
	// truth: the fitted coefficients wrapped as the paper's closed forms,
	// and the blackbox regression (its own simulated campaign, see
	// docs/MODELS.md).
	p := roofline.FromMachine(mr.Fitted, roofline.Double)
	analytic := model.NewAnalytic(p)
	blackbox, err := model.For(model.BlackboxName, "gtx580", machine.Double)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fitted model: Bτ=%.2f, B̂ε(y=½)=%.2f flop/byte, race-to-halt=%v\n\n",
		p.BalanceTime(), p.HalfEfficiencyIntensity(), p.RaceToHaltEffective())

	// Predict fresh measurements neither fit ever saw, through the one
	// interface both implement.
	truth := machine.Catalog()["gtx580"]
	eng, err := sim.New(truth, sim.DefaultConfig(2026))
	if err != nil {
		panic(err)
	}
	models := []model.EnergyModel{analytic, blackbox}
	fmt.Printf("%10s %14s", "I (fl/B)", "measured E")
	for _, em := range models {
		fmt.Printf(" %14s %8s", em.Name()+" E", "error")
	}
	fmt.Println()
	for _, i := range []float64{0.7, 3, 11} {
		k := core.KernelAt(2e9, i)
		runs, err := eng.RunRepeated(sim.KernelSpec{
			W: k.W, Q: k.Q, Precision: machine.Double, Tuning: eng.OptimalTuning(),
		}, 10)
		if err != nil {
			panic(err)
		}
		_, me, _, err := sim.Aggregate(runs)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%10.3g %14s", i, units.FormatSI(float64(me), "J", 4))
		for _, em := range models {
			pred := em.CappedEnergy(k)
			fmt.Printf(" %14s %7.1f%%", units.FormatSI(pred, "J", 4), (pred/float64(me)-1)*100)
		}
		fmt.Println()
	}
	fmt.Println("\nboth predictors generalise: fit once, predict forever — and the")
	fmt.Println("scorecard (go run ./cmd/experiments -run scorecard) says which to trust where.")
}
