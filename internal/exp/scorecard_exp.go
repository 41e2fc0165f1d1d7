package exp

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/model/scorecard"
)

func init() {
	register(Experiment{
		ID:    "scorecard",
		Title: "Model scorecard: analytic vs blackbox accuracy per (machine, precision)",
		Run:   runScorecard,
	})
}

// runScorecard runs the dual-model accuracy scorecard over the whole
// catalog (internal/model/scorecard) and reports its structural
// guarantees: worker-count invariance of the artifact, blackbox fit
// quality, and the Hofmann-style observation the dual-model design
// exists for — there are pairs where the fitted blackbox beats the
// paper's closed forms, and pairs where the closed forms win.
func runScorecard(cfg Config) (*Report, error) {
	sconf := scorecard.Config{Seed: cfg.Seed}
	if cfg.Fast {
		sconf.FitPoints = 5
		sconf.FitReps = 3
		sconf.EvalPoints = 9
		sconf.EvalReps = 2
	}
	ctx := cfg.ctx()
	sc, err := scorecard.Run(ctx, sconf)
	if err != nil {
		return nil, err
	}
	// Re-run sequentially and compare bytes: the determinism contract
	// (fixed config → byte-identical JSON at any worker count) checked
	// live, not just in the golden test.
	seq := sconf
	seq.Workers = 1
	sc1, err := scorecard.Run(ctx, seq)
	if err != nil {
		return nil, err
	}
	j0, err := sc.ToJSON()
	if err != nil {
		return nil, err
	}
	j1, err := sc1.ToJSON()
	if err != nil {
		return nil, err
	}
	workerInvariant := bytes.Equal(j0, j1)

	minEnergyR2 := 1.0
	blackboxWins, analyticWins := 0, 0
	var selected []string
	for i := range sc.Cards {
		c := &sc.Cards[i]
		if c.EnergyR2 < minEnergyR2 {
			minEnergyR2 = c.EnergyR2
		}
		switch c.Selected {
		case model.BlackboxName:
			blackboxWins++
		case model.AnalyticName:
			analyticWins++
		}
		selected = append(selected, fmt.Sprintf("%s/%s→%s", c.Machine, c.Precision, c.Selected))
	}

	var sb strings.Builder
	sb.WriteString(sc.Render())
	fmt.Fprintf(&sb, "\nauto-selection: %s\n", strings.Join(selected, ", "))
	fmt.Fprintf(&sb, "artifact: %d bytes of JSON, byte-identical at any -workers: %v\n", len(j0), workerInvariant)

	for i := range sc.Cards {
		c := &sc.Cards[i]
		if err := writeSVG(cfg, fmt.Sprintf("scorecard_%s_%s_energy", c.Machine, c.Precision), scorecard.CDFChart(c, "energy")); err != nil {
			return nil, err
		}
	}

	return &Report{
		ID:    "scorecard",
		Title: "Model scorecard: analytic vs blackbox accuracy per (machine, precision)",
		Comparisons: []Comparison{
			{Name: "scorecard artifact byte-identical at any worker count", Paper: 1,
				Measured: boolTo01(workerInvariant), Tol: 1e-9},
			{Name: "blackbox energy fit R² > 0.95 on every pair", Paper: 1,
				Measured: boolTo01(minEnergyR2 > 0.95), Tol: 1e-9,
				Note: fmt.Sprintf("worst pair R² = %.4f", minEnergyR2)},
			{Name: "pairs where the fitted blackbox beats the closed forms", Paper: 1,
				Measured: boolTo01(blackboxWins > 0), Tol: 1e-9,
				Note: "the Hofmann et al. (arXiv:1803.01618) critique, reproduced against our own simulator"},
			{Name: "pairs where the closed forms win", Paper: 1,
				Measured: boolTo01(analyticWins > 0), Tol: 1e-9,
				Note: "the analytic model stays the default: it wins wherever eqs. 3-4 describe the machine"},
			{Name: "(machine, precision) pairs scored", Paper: 0,
				Measured: float64(len(sc.Cards))},
			{Name: "pairs auto-selecting blackbox", Paper: 0,
				Measured: float64(blackboxWins)},
		},
		Text: sb.String(),
	}, nil
}
