// Power-cap and race-to-halt study: the two §V-B phenomena.
//
// Part 1 sweeps intensity on the GTX 580 single-precision model and
// shows where the power-line model demands more than the board can
// deliver — the reason Fig. 4b's measured points bend away from the
// roofline near the balance point.
//
// Part 2 sweeps the constant power π0 and shows the race-to-halt
// verdict flipping exactly where the effective energy-balance point
// crosses the time-balance point, plus a DVFS sweep over s-law
// operating points (clock fraction s, V ∝ f) confirming the verdict at
// the clock.
package main

import (
	"fmt"

	roofline "repro"
	"repro/internal/machine"
)

func main() {
	m := roofline.GTX580()
	p := roofline.FromMachine(m, roofline.Single)

	fmt.Println("— part 1: the power wall (GTX 580, single precision) —")
	fmt.Printf("rated %g W, hard cap %g W; model max demand %.0f W at I = Bτ = %.1f\n\n",
		float64(m.RatedPower), float64(m.PowerCap), p.MaxPower(), p.BalanceTime())
	fmt.Printf("%10s %12s %12s %12s %14s\n", "I (fl/B)", "model W", "capped W", "slowdown", "extra energy")
	for _, i := range roofline.LogGrid(1, 64, 7) {
		k := roofline.KernelAt(1e10, i)
		uncapped := p.AveragePower(k)
		capped := p.CappedPower(k)
		slow := p.CappedTime(k) / p.Time(k)
		extra := p.CappedEnergy(k)/p.Energy(k) - 1
		fmt.Printf("%10.3g %12.1f %12.1f %11.2f× %13.1f%%\n", i, uncapped, capped, slow, extra*100)
	}

	fmt.Println("\n— part 2: when does race-to-halt stop working? —")
	fmt.Println("sweep π0 on the GTX 580 double-precision model:")
	fmt.Printf("%10s %10s %12s %16s\n", "π0 (W)", "Bτ", "B̂ε(y=½)", "race-to-halt?")
	pd := roofline.FromMachine(m, roofline.Double)
	for _, pi0 := range []float64{0, 10, 20, 40, 80, 122} {
		q := pd
		q.Pi0 = pi0
		fmt.Printf("%10.0f %10.2f %12.2f %16v\n", pi0, q.BalanceTime(), q.HalfEfficiencyIntensity(), q.RaceToHaltEffective())
	}
	fmt.Println("\nwith today's π0 = 122 W the gap is benign and racing wins; drive π0 → 0")
	fmt.Println("and the GPU double-precision case reverses (§V-B).")

	// The same verdict from the clock: price a compute-bound kernel at
	// several s-law operating points and compare energies.
	fmt.Println("\nDVFS sweep over s-law operating points (compute-bound double-precision kernel):")
	k := roofline.Kernel{W: 1e11, Q: 1e7}
	for _, pi0 := range []float64{122, 0} {
		q := pd
		q.Pi0 = pi0
		fmt.Printf("  π0 = %3.0f W: ", pi0)
		bestS, bestE := 0.0, 0.0
		for _, s := range []float64{0.4, 0.6, 0.8, 1.0} {
			e := q.AtOperatingPoint(machine.SLawPoint(s)).Energy(k)
			fmt.Printf("s=%.1f→%.1fJ  ", s, e)
			if bestE == 0 || e < bestE {
				bestE, bestS = e, s
			}
		}
		verdict := "race-to-halt wins"
		if bestS < 1 {
			verdict = fmt.Sprintf("downclocking to %.1f wins", bestS)
		}
		fmt.Printf("→ %s\n", verdict)
	}
}
