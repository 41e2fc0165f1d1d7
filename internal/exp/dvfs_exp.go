package exp

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dvfs"
)

// DVFS study experiments: the frequency-scaling dimension the
// operating-point catalog adds, in the three scenarios internal/dvfs
// evaluates. They share one study run per experiment invocation.
func init() {
	register(Experiment{ID: "dvfs-optfreq", Title: "Energy-optimal frequency vs intensity over the operating-point catalog", Run: runDVFSOptFreq})
	register(Experiment{ID: "dvfs-raceidle", Title: "Race-to-idle vs pace-to-fill: closed-form crossover + powermon validation", Run: runDVFSRaceIdle})
	register(Experiment{ID: "dvfs-dispatch", Title: "Heterogeneous CPU/GPU dispatch via eq. 10 greenup/speedup ratios", Run: runDVFSDispatch})
}

// dvfsStudy runs the study at the experiment harness's seed, fast-mode
// aware, and checks the worker-invariance contract live.
func dvfsStudy(cfg Config) (*dvfs.Study, bool, error) {
	dconf := dvfs.Config{Seed: cfg.Seed, Fast: cfg.Fast}
	ctx := cfg.ctx()
	st, err := dvfs.Run(ctx, dconf)
	if err != nil {
		return nil, false, err
	}
	seq := dconf
	seq.Workers = 1
	st1, err := dvfs.Run(ctx, seq)
	if err != nil {
		return nil, false, err
	}
	j0, err := st.ToJSON()
	if err != nil {
		return nil, false, err
	}
	j1, err := st1.ToJSON()
	if err != nil {
		return nil, false, err
	}
	return st, bytes.Equal(j0, j1), nil
}

// optFreqFor returns the study's curve for one (machine, precision).
func optFreqFor(st *dvfs.Study, mkey, prec string) *dvfs.OptFreqCurve {
	for i := range st.OptFreq {
		if st.OptFreq[i].Machine == mkey && st.OptFreq[i].Precision == prec {
			return &st.OptFreq[i]
		}
	}
	return nil
}

func runDVFSOptFreq(cfg Config) (*Report, error) {
	st, invariant, err := dvfsStudy(cfg)
	if err != nil {
		return nil, err
	}
	allMonotone := true
	allStartSlow, allSavePower := true, true
	for i := range st.OptFreq {
		c := &st.OptFreq[i]
		allMonotone = allMonotone && c.Monotone
		first := c.Points[0]
		allStartSlow = allStartSlow && first.FreqScale < 1
		allSavePower = allSavePower && first.SavingsFrac > 0
	}
	gdp := optFreqFor(st, "gtx580", "double")
	gsp := optFreqFor(st, "gtx580", "single")
	if gdp == nil || gsp == nil {
		return nil, fmt.Errorf("dvfs-optfreq: study lost the gtx580 curves")
	}
	lastDP := gdp.Points[len(gdp.Points)-1]
	lastSP := gsp.Points[len(gsp.Points)-1]

	var sb strings.Builder
	sb.WriteString(st.Render())
	for i := range st.OptFreq {
		c := &st.OptFreq[i]
		if err := writeSVG(cfg, fmt.Sprintf("dvfs_optfreq_%s_%s", c.Machine, c.Precision), dvfs.OptFreqChart(c)); err != nil {
			return nil, err
		}
	}

	return &Report{
		ID:    "dvfs-optfreq",
		Title: "Energy-optimal frequency vs intensity over the operating-point catalog",
		Comparisons: []Comparison{
			{Name: "study artifact byte-identical at any worker count", Paper: 1,
				Measured: boolTo01(invariant), Tol: 1e-9},
			{Name: "optimal clock monotone non-decreasing in I on every curve", Paper: 1,
				Measured: boolTo01(allMonotone), Tol: 1e-9,
				Note: "theory: π0(s)/s and V(s)² both increase in s under a validated law"},
			{Name: "memory-bound end picks a downclocked point on every curve", Paper: 1,
				Measured: boolTo01(allStartSlow), Tol: 1e-9},
			{Name: "downclocking saves energy at the memory-bound end everywhere", Paper: 1,
				Measured: boolTo01(allSavePower), Tol: 1e-9},
			{Name: "gtx580 double compute-bound optimum is full clock (s*)", Paper: 1,
				Measured: lastDP.FreqScale, Tol: 1e-9,
				Note: "ε0 ≥ 2·εflop at double width: race-to-halt in frequency"},
			{Name: "gtx580 single compute-bound optimum stays below full clock (s*)", Paper: 0.70,
				Measured: lastSP.FreqScale, Tol: 1e-9,
				Note: "the narrow-width reversal: cheap flops make π0 relatively weak"},
			{Name: "gtx580 double memory-bound energy saving at I=1/16 (fraction)", Paper: 0,
				Measured: gdp.Points[0].SavingsFrac},
		},
		Text: sb.String(),
	}, nil
}

func runDVFSRaceIdle(cfg Config) (*Report, error) {
	st, _, err := dvfsStudy(cfg)
	if err != nil {
		return nil, err
	}
	allConsistent, allExact := true, true
	deepWins, shallowPaces := true, true
	worstRelErr := 0.0
	var gtxShallow *dvfs.RaceIdleCase
	for i := range st.RaceIdle {
		r := &st.RaceIdle[i]
		allExact = allExact && r.CrossoverOk
		allConsistent = allConsistent && (r.RaceWins == (r.Pi0W >= r.CrossoverW))
		if r.Scenario == "deep-idle" {
			deepWins = deepWins && r.RaceWins
		} else {
			shallowPaces = shallowPaces && !r.RaceWins
		}
		if r.MeasuredRelErr > worstRelErr {
			worstRelErr = r.MeasuredRelErr
		}
		if r.Machine == "gtx580" && r.Scenario == "shallow-idle" {
			gtxShallow = r
		}
	}
	if gtxShallow == nil {
		return nil, fmt.Errorf("dvfs-raceidle: study lost the gtx580 shallow-idle case")
	}

	var sb strings.Builder
	sb.WriteString(st.Render())
	if err := writeSVG(cfg, "dvfs_raceidle", dvfs.RaceIdleChart(st)); err != nil {
		return nil, err
	}

	return &Report{
		ID:    "dvfs-raceidle",
		Title: "Race-to-idle vs pace-to-fill: closed-form crossover + powermon validation",
		Comparisons: []Comparison{
			{Name: "crossover closed form exact on every case", Paper: 1,
				Measured: boolTo01(allExact), Tol: 1e-9},
			{Name: "race wins exactly when π0 ≥ crossover, every case", Paper: 1,
				Measured: boolTo01(allConsistent), Tol: 1e-9},
			{Name: "deep idle: racing wins on every machine", Paper: 1,
				Measured: boolTo01(deepWins), Tol: 1e-9,
				Note: "free waiting makes the constant-power term decisive"},
			{Name: "shallow idle: pacing wins on every machine", Paper: 1,
				Measured: boolTo01(shallowPaces), Tol: 1e-9,
				Note: "idle draw taxes the race's long wait; stretching the work wins"},
			{Name: "worst powermon deviation from the closed form (rel err)", Paper: 0,
				Measured: worstRelErr, Tol: 0.02,
				Note: "simulated 1024 Hz trace of the race step profile"},
			{Name: "gtx580 shallow-idle crossover π0* (W)", Paper: 0,
				Measured: gtxShallow.CrossoverW},
		},
		Text: sb.String(),
	}, nil
}

func runDVFSDispatch(cfg Config) (*Report, error) {
	st, _, err := dvfsStudy(cfg)
	if err != nil {
		return nil, err
	}
	plats, err := dvfs.DefaultPlatforms()
	if err != nil {
		return nil, err
	}
	// Scalar/columnar differential: replay every grid choice through
	// the scalar Dispatch scan.
	agree := true
	for j, c := range st.Dispatch.Choices {
		k := core.KernelAt(st.Work, st.Intensities[j])
		if plats[dvfs.Dispatch(plats, k)].Label != c.Platform {
			agree = false
		}
	}
	first := st.Dispatch.Choices[0]
	last := st.Dispatch.Choices[len(st.Dispatch.Choices)-1]
	allGreen := true
	for _, c := range st.Dispatch.Choices {
		allGreen = allGreen && c.Greenup >= 1
	}

	var sb strings.Builder
	sb.WriteString(st.MarkdownTable())
	if err := writeSVG(cfg, "dvfs_dispatch", dvfs.DispatchChart(st)); err != nil {
		return nil, err
	}

	return &Report{
		ID:    "dvfs-dispatch",
		Title: "Heterogeneous CPU/GPU dispatch via eq. 10 greenup/speedup ratios",
		Comparisons: []Comparison{
			{Name: "scalar dispatch agrees with the columnar table everywhere", Paper: 1,
				Measured: boolTo01(agree), Tol: 1e-9},
			{Name: "every dispatch choice is at least as green as the CPU baseline", Paper: 1,
				Measured: boolTo01(allGreen), Tol: 1e-9},
			{Name: "memory-bound end dispatches to a downclocked multi-SM GPU", Paper: 1,
				Measured: boolTo01(first.Platform == "gtx580-4sm@0.55x"), Tol: 1e-9,
				Note: "shared memory interface: fewer SMs at low clock, same bandwidth"},
			{Name: "compute-bound end dispatches to the full-clock GPU", Paper: 1,
				Measured: boolTo01(last.Platform == "gtx580@1.00x"), Tol: 1e-9},
			{Name: "greenup of the winner at the compute-bound end (×)", Paper: 0,
				Measured: last.Greenup},
			{Name: "speedup of the winner at the compute-bound end (×)", Paper: 0,
				Measured: last.Speedup},
		},
		Text: sb.String(),
	}, nil
}
