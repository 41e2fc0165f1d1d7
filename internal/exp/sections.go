package exp

import (
	"fmt"
	"strings"

	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/fmm"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "peaks", Title: "Achieved fractions of peak (§IV-B)", Run: runPeaks})
	register(Experiment{ID: "fmmu", Title: "FMM U-list energy estimation study (§V-C)", Run: runFMMU})
	register(Experiment{ID: "greenup", Title: "Work–communication trade-off / greenup analysis (§VII, eq. 10)", Run: runGreenup})
	register(Experiment{ID: "racetohalt", Title: "Race-to-halt balance-gap analysis (§II-D, §V-B)", Run: runRaceToHalt})
}

func runPeaks(cfg Config) (*Report, error) {
	rep := &Report{ID: "peaks", Title: "Achieved peak fractions"}
	cases := []struct {
		m            *machine.Machine
		prec         machine.Precision
		gflops, gbps float64 // §IV-B reported achieved values
	}{
		{machine.GTX580(), machine.Double, 196, 170},
		{machine.GTX580(), machine.Single, 1398, 168},
		{machine.CoreI7950(), machine.Single, 99.4, 18.7},
		{machine.CoreI7950(), machine.Double, 49.7, 18.9},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %-8s %14s %14s %12s %12s\n", "device", "prec", "GFLOP/s", "% of peak", "GB/s", "% of peak")
	for i, c := range cases {
		eng, err := sim.New(c.m, sim.DefaultConfig(cfg.Seed+200+int64(i)))
		if err != nil {
			return nil, err
		}
		tuning, _, err := microbench.AutoTune(eng, c.prec)
		if err != nil {
			return nil, err
		}
		gf, gb, err := microbench.Peaks(eng, c.prec, tuning)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "%-20s %-8v %14.1f %13.1f%% %12.1f %11.1f%%\n",
			c.m.Name, c.prec, gf, gf/(c.m.Params(c.prec).PeakFlops/1e9)*100,
			gb, gb/(c.m.Bandwidth/1e9)*100)
		label := fmt.Sprintf("%s %v", c.m.Name, c.prec)
		rep.Comparisons = append(rep.Comparisons,
			Comparison{Name: label + " achieved GFLOP/s", Paper: c.gflops, Measured: gf, Tol: 0.05},
			Comparison{Name: label + " achieved GB/s", Paper: c.gbps, Measured: gb, Tol: 0.05},
		)
	}
	rep.Text = sb.String()
	return rep, nil
}

func runFMMU(cfg Config) (*Report, error) {
	sc := fmm.StudyConfig{Seed: cfg.Seed}
	if cfg.Fast {
		sc.N = 2048
		sc.LeafSize = 192
		var subset []fmm.Variant
		for _, v := range fmm.GenerateVariants() {
			if v.Unroll == 1 && v.VectorWidth == 1 {
				subset = append(subset, v)
			}
		}
		sc.Variants = subset
	}
	res, err := fmm.RunStudyCtx(cfg.ctx(), sc)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine: %s; variants: %d (%d L1/L2-only); pairs: %d; W: %.3g flops\n",
		res.MachineName, len(res.Results), res.CacheOnlyCount, res.Pairs, res.W)
	fmt.Fprintf(&sb, "fitted cache energy: %.1f pJ/B (planted %.1f)\n", res.FittedCachePJ, res.TrueCachePJ)
	fmt.Fprintf(&sb, "eq.(2) mean underestimate over L1/L2-only class: %.1f%%\n", res.MeanUnderestimate*100)
	fmt.Fprintf(&sb, "refined-estimate median error: %.2f%%\n", res.MedianRefinedErr*100)
	// The five worst-underestimated variants, for flavour.
	rs := append([]fmm.VariantResult(nil), res.Results...)
	fmm.SortByEq2Error(rs)
	fmt.Fprintf(&sb, "%-28s %10s %12s %12s\n", "variant", "eq2 err", "refined err", "I (fl/B)")
	for i := 0; i < len(rs) && i < 5; i++ {
		fmt.Fprintf(&sb, "%-28s %9.1f%% %11.2f%% %12.0f\n",
			rs[i].Variant.Name(), rs[i].Eq2RelError()*100, rs[i].RefinedRelError()*100, rs[i].IntensityOf())
	}
	return &Report{
		ID: "fmmu", Title: "FMM U-list energy estimation",
		Comparisons: []Comparison{
			{Name: "fitted cache energy (pJ/B)", Paper: 187, Measured: res.FittedCachePJ, Tol: 0.10},
			{Name: "eq.(2) mean underestimate", Paper: 0.33, Measured: res.MeanUnderestimate, Tol: 0,
				Note: "paper: 'lower by 33% on average'; magnitude depends on the variant mix"},
			{Name: "refined median relative error", Paper: 0.041, Measured: res.MedianRefinedErr, Tol: 0,
				Note: "paper: 4.1% median error; ours reflects simulated measurement noise"},
			{Name: "refined median error below 6%", Paper: 1, Measured: boolTo01(res.MedianRefinedErr < 0.06), Tol: 1e-9},
			{Name: "eq.(2) underestimates substantially (>15%)", Paper: 1, Measured: boolTo01(res.MeanUnderestimate > 0.15), Tol: 1e-9},
		},
		Text: sb.String(),
	}, nil
}

func runGreenup(Config) (*Report, error) {
	// The paper's analysis uses the π0 = 0 model on a machine with a
	// balance gap; use the Table II Fermi.
	p := core.FromMachine(machine.FermiTableII(), machine.Double)
	rep := &Report{ID: "greenup", Title: "Greenup conditions (eq. 10)"}

	// Agreement between eq. (10) and the exact energy model over a
	// dense (f, m, I) grid.
	total, agree := 0, 0
	for _, i := range core.LogGrid(0.25, 64, 9) {
		k := core.KernelAt(1e9, i)
		for _, m := range []float64{1.25, 2, 4, 16, 256} {
			for _, f := range []float64{1.01, 1.5, 2, 3, 5, 9, 17} {
				tr := core.Tradeoff{F: f, M: m}
				exact := p.Greenup(k, tr) > 1
				pred := p.GreenupPredicted(i, tr)
				total++
				if exact == pred {
					agree++
				}
			}
		}
	}
	rep.Comparisons = append(rep.Comparisons,
		Comparison{Name: "eq.(10) agreement with exact model (π0=0)", Paper: 1, Measured: float64(agree) / float64(total), Tol: 1e-9},
		Comparison{Name: "hard f limit at I=Bτ: 1 + Bε/Bτ", Paper: 1 + 14.4/3.6, Measured: p.MaxExtraWorkComputeBound(), Tol: 0.01},
	)

	// A quadrant table at I = 2 (memory-bound in time, below Bε).
	var sb strings.Builder
	k := core.KernelAt(1e9, 2)
	fmt.Fprintf(&sb, "baseline I=2 flop/byte on Table II Fermi (π0=0): Bτ=%.2f Bε=%.1f\n", p.BalanceTime(), p.BalanceEnergy())
	fmt.Fprintf(&sb, "%-8s %-8s %10s %10s  %s\n", "f", "m", "speedup", "greenup", "outcome")
	for _, tc := range []core.Tradeoff{
		{F: 1.1, M: 4}, {F: 2, M: 4}, {F: 4, M: 4}, {F: 8, M: 4},
		{F: 2, M: 64}, {F: 8, M: 64}, {F: 1.1, M: 1.2},
	} {
		fmt.Fprintf(&sb, "%-8.2f %-8.2f %10.3f %10.3f  %s\n",
			tc.F, tc.M, p.Speedup(k, tc), p.Greenup(k, tc), p.Classify(k, tc))
	}

	// The whole (f, m) plane as a heatmap of outcomes.
	fs := core.LogGrid(1.05, 32, 21)
	ms := core.LogGrid(1.1, 1024, 25)
	z := make([][]float64, len(fs))
	for i, f := range fs {
		z[i] = make([]float64, len(ms))
		for j, m := range ms {
			z[i][j] = float64(p.Classify(k, core.Tradeoff{F: f, M: m}))
		}
	}
	hm := &chart.Heatmap{
		Title:  "trade-off outcome over the (m, f) plane at baseline I=2",
		XLabel: "m (traffic reduction, log)",
		YLabel: "f (extra work, log)",
		X:      ms,
		Y:      fs,
		Z:      z,
		Cell: func(v float64) rune {
			switch core.TradeoffOutcome(int(v)) {
			case core.Both:
				return 'B'
			case core.GreenupOnly:
				return 'g'
			case core.SpeedupOnly:
				return 's'
			default:
				return '.'
			}
		},
		Legend: []string{
			"B = speedup and greenup, g = greenup only, s = speedup only, . = neither",
		},
	}
	hmText, err := hm.RenderASCII()
	if err != nil {
		return nil, err
	}
	rep.Text = sb.String() + "\n" + hmText
	return rep, nil
}

func runRaceToHalt(Config) (*Report, error) {
	rep := &Report{ID: "racetohalt", Title: "Race-to-halt analysis"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %-8s %8s %10s %12s %14s\n", "machine", "prec", "Bτ", "B̂ε(y=½)", "gap adverse?", "race-to-halt?")
	cases := []struct {
		m    *machine.Machine
		prec machine.Precision
	}{
		{machine.GTX580(), machine.Single},
		{machine.GTX580(), machine.Double},
		{machine.CoreI7950(), machine.Single},
		{machine.CoreI7950(), machine.Double},
	}
	allHold := true
	for _, c := range cases {
		p := core.FromMachine(c.m, c.prec)
		rth := p.RaceToHaltEffective()
		if !rth {
			allHold = false
		}
		fmt.Fprintf(&sb, "%-20s %-8v %8.2f %10.2f %12v %14v\n",
			c.m.Name, c.prec, p.BalanceTime(), p.HalfEfficiencyIntensity(),
			p.HalfEfficiencyIntensity() > p.BalanceTime(), rth)
	}
	// π0 → 0 reversal cases (§V-B).
	gpu := core.FromMachine(machine.GTX580(), machine.Double)
	gpu.Pi0 = 0
	cpu := core.FromMachine(machine.CoreI7950(), machine.Double)
	cpu.Pi0 = 0
	fmt.Fprintf(&sb, "with π0→0: GTX 580 double race-to-halt=%v (reverses), i7-950 double race-to-halt=%v (does not)\n",
		gpu.RaceToHaltEffective(), cpu.RaceToHaltEffective())
	rep.Comparisons = []Comparison{
		{Name: "race-to-halt effective on all measured cases", Paper: 1, Measured: boolTo01(allHold), Tol: 1e-9},
		{Name: "GTX 580 double reverses when π0=0", Paper: 1, Measured: boolTo01(!gpu.RaceToHaltEffective()), Tol: 1e-9},
		{Name: "i7-950 double does NOT reverse when π0=0", Paper: 1, Measured: boolTo01(cpu.RaceToHaltEffective()), Tol: 1e-9},
	}
	rep.Text = sb.String()
	return rep, nil
}
