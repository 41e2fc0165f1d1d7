// Frame scheduler: the race-to-halt question as an operator would meet
// it. Periodic jobs must each finish within their frame; the scheduler
// picks, per job, between racing (the base operating point, then idle)
// and pacing (the slowest s-law point that fills the frame), pricing
// both with dvfs.PolicyEnergy. The verdict tracks the balance between
// active constant power and the idle state's draw — the §V-B story in
// scheduling form.
package main

import (
	"fmt"

	roofline "repro"
	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/units"
)

type job struct {
	name      string
	kernel    roofline.Kernel
	frameSecs float64
}

func main() {
	m := roofline.GTX580()
	p := roofline.FromMachine(m, roofline.Double)
	idle := float64(m.IdlePower) // the paper's measured 39.6 W
	const sMin = 0.3

	jobs := []job{
		{"sensor-fusion", roofline.KernelAt(5e9, 40), 0.120},
		{"video-filter", roofline.KernelAt(2e10, 12), 0.250},
		{"model-update", roofline.KernelAt(8e10, 200), 1.000},
		{"telemetry-pack", roofline.KernelAt(1e9, 0.5), 0.100},
	}

	fmt.Printf("platform: %s (π0 = %.0f W active, %.1f W idle, slowest clock %.1f×)\n\n",
		m.Name, p.Pi0, idle, sMin)
	fmt.Printf("%-16s %10s %10s %12s %12s %14s %10s\n",
		"job", "frame", "run time", "race E", "pace E", "decision", "saving")
	var total, naive float64
	for _, j := range jobs {
		race, pace := frameEnergies(p, j, idle, sMin)
		strat, best := decide(race, pace)
		total += best
		naive += race
		saving := (1 - best/race) * 100
		fmt.Printf("%-16s %10s %10s %11.3fJ %11.3fJ %14v %9.1f%%\n",
			j.name,
			units.FormatSI(j.frameSecs, "s", 3),
			units.FormatSI(p.Time(j.kernel), "s", 3),
			race, pace, strat, saving)
	}
	fmt.Printf("\ntotal energy with per-job decisions: %.3f J (always-race: %.3f J)\n", total, naive)

	// The same queue on the hypothetical future machine (π0 = 0):
	// pacing wins everywhere, by a lot.
	fm := roofline.FutureBalanceGap()
	fp := roofline.FromMachine(fm, roofline.Double)
	fmt.Printf("\non %s (π0 = 0):\n", fm.Name)
	for _, j := range jobs {
		race, pace := frameEnergies(fp, j, 0, sMin)
		strat, _ := decide(race, pace)
		fmt.Printf("  %-16s %v (race %.4f J, pace %.4f J)\n", j.name, strat, race, pace)
	}
	fmt.Println("\nthe flip is the paper's §V-B prediction: race-to-halt is an artifact of")
	fmt.Println("today's constant power, not a law.")
}

// frameEnergies prices job j on p both ways: race at the base point and
// idle out the frame, or pace at the slowest s-law point, no slower
// than sMin, that fills it (s_F = W·τflop/F).
func frameEnergies(p roofline.Params, j job, idle, sMin float64) (race, pace float64) {
	race, err := dvfs.PolicyEnergy(p, machine.BasePoint(), j.kernel, idle, j.frameSecs)
	if err != nil {
		panic(err)
	}
	sF := max(j.kernel.W*p.TauFlop/j.frameSecs, sMin)
	pace, err = dvfs.PolicyEnergy(p, machine.SLawPoint(sF), j.kernel, idle, j.frameSecs)
	if err != nil {
		panic(err)
	}
	return race, pace
}

// decide names the cheaper policy, racing on a tie, and its energy.
func decide(race, pace float64) (string, float64) {
	if race <= pace {
		return "race-to-halt", race
	}
	return "pace", pace
}
