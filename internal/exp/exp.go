// Package exp is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation, and per ablation,
// extension and study built on it, each returning a report with
// paper-reported versus reproduced values and a rendered text (and
// optional SVG) artifact. cmd/experiments is its only front end.
//
// The registry, in paper order:
//
//	tableI     — model parameter glossary (Table I)
//	tableII    — Fermi sample parameters and balances (Table II)
//	fig2a      — roofline vs arch line (Fig. 2a)
//	fig2b      — power-line chart (Fig. 2b)
//	tableIII   — platform peaks (Table III)
//	fig4a      — measured vs model, double precision (Fig. 4a)
//	fig4b      — measured vs model, single precision (Fig. 4b)
//	tableIV    — fitted energy coefficients via eq. 9 (Table IV)
//	peaks      — §IV-B achieved fractions of peak
//	fig5a      — power lines, double precision (Fig. 5a)
//	fig5b      — power lines, single precision + cap (Fig. 5b)
//	fmmu       — §V-C FMM U-list energy estimation study
//	greenup    — §VII work–communication trade-off analysis (eq. 10)
//	racetohalt — §II-D/§V-B race-to-halt balance-gap analysis
//
// then the ablations, extensions and studies, by ID:
//
//	ablation-cap      — power cap on/off near the balance point
//	ablation-overlap  — overlap vs no-overlap time model
//	ablation-pi0      — constant-power sweep and the race-to-halt flip
//	ablation-prefetch — next-line prefetcher on streaming vs reuse traffic
//	ablation-sampling — power-monitor sampling rate vs integration error
//	algs              — §II-A algorithmic intensity laws
//	concurrency       — §VII latency/concurrency refinement
//	dvfs              — analytic DVFS race-to-halt threshold
//	dvfs-dispatch     — heterogeneous CPU/GPU dispatch (eq. 10 ratios)
//	dvfs-optfreq      — energy-optimal frequency per operating-point curve
//	dvfs-raceidle     — race-to-idle vs pace-to-fill crossover
//	future            — §VII future regime with a real balance gap
//	metrics           — §VI composite time–energy metrics
//	modelfit          — model-vs-measurement bound validation (§VII)
//	pipeline          — cycle-level grounding of achieved fractions
//	scorecard         — analytic vs blackbox model accuracy per pair
//	tradeoffs         — cataloged work–communication trade-offs (§VII)
package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// DefaultSeed is the experiments command's default -seed: the seed
// the committed EXPERIMENTS.md and figures/ are generated at.
const DefaultSeed = 42

// Config controls experiment execution.
type Config struct {
	// Seed drives all simulated measurement noise.
	Seed int64
	// Fast trades statistical weight for speed (fewer reps, smaller
	// instances); used by the test suite. The experiments binary runs
	// full size by default.
	Fast bool
	// SVGDir, when set, receives one SVG per figure experiment.
	SVGDir string
	// Trace, when non-nil, records spans for the sweeps inside each
	// experiment. Tracing never touches the noise streams, so reports
	// are identical with or without it.
	Trace *trace.Tracer
}

// ctx returns a context carrying cfg.Trace, the handle experiments use
// to hand the tracer down to Sweep and the worker pool.
func (c Config) ctx() context.Context {
	return trace.WithTracer(context.Background(), c.Trace)
}

// Comparison pairs a paper-reported value with its reproduced value.
type Comparison struct {
	// Name describes the quantity (with units).
	Name string
	// Paper is the value the paper reports.
	Paper float64
	// Measured is the reproduction's value.
	Measured float64
	// Tol is the acceptable relative deviation for Ok; 0 means the
	// comparison is informational only.
	Tol float64
	// Note carries caveats (e.g. known simulator/testbed differences).
	Note string
}

// Ok reports whether the reproduced value is within tolerance of the
// paper's. Informational comparisons (Tol = 0) are always Ok.
func (c Comparison) Ok() bool {
	if c.Tol == 0 {
		return true
	}
	if c.Paper == 0 {
		return math.Abs(c.Measured) <= c.Tol
	}
	return math.Abs(c.Measured-c.Paper)/math.Abs(c.Paper) <= c.Tol
}

// Report is one experiment's outcome.
type Report struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Comparisons hold paper-vs-reproduced values.
	Comparisons []Comparison
	// Text is the rendered artifact (tables, ASCII charts).
	Text string
}

// Failures returns the comparisons that exceeded tolerance.
func (r *Report) Failures() []Comparison {
	var out []Comparison
	for _, c := range r.Comparisons {
		if !c.Ok() {
			out = append(out, c)
		}
	}
	return out
}

// Render formats the report for terminal output.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Comparisons) > 0 {
		fmt.Fprintf(&sb, "%-44s %14s %14s  %s\n", "quantity", "paper", "reproduced", "ok")
		for _, c := range r.Comparisons {
			status := "ok"
			if !c.Ok() {
				status = "DEVIATES"
			}
			if c.Tol == 0 {
				status = "info"
			}
			fmt.Fprintf(&sb, "%-44s %14.4g %14.4g  %s", c.Name, c.Paper, c.Measured, status)
			if c.Note != "" {
				fmt.Fprintf(&sb, "  (%s)", c.Note)
			}
			sb.WriteString("\n")
		}
	}
	if r.Text != "" {
		sb.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key (e.g. "fig4a").
	ID string
	// Title is a human-readable summary.
	Title string
	// Run executes the experiment.
	Run func(Config) (*Report, error)
}

var registry = map[string]Experiment{}

// canonicalOrder lists experiments in the order the paper presents
// them; experiments not in this list (extensions) sort after, by ID.
var canonicalOrder = []string{
	"tableI", "tableII", "fig2a", "fig2b", "tableIII",
	"fig4a", "fig4b", "tableIV", "peaks",
	"fig5a", "fig5b", "fmmu", "greenup", "racetohalt",
}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

func rank(id string) int {
	for i, v := range canonicalOrder {
		if v == id {
			return i
		}
	}
	return len(canonicalOrder)
}

// All returns every experiment in paper order (extensions last, by ID).
func All() []Experiment {
	ids := IDs()
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// RunAll executes the given experiments on a bounded worker pool
// (parallel.Workers semantics: workers < 1 means GOMAXPROCS) and
// returns their reports in input order. Experiments are independent —
// each seeds its own simulators from cfg.Seed — so concurrency changes
// wall time, never report content; the first failure cancels the
// remaining experiments and is returned annotated with its experiment
// ID. When ctx or cfg carries a tracer, each experiment runs under an
// "exp.<id>" span.
func RunAll(ctx context.Context, selected []Experiment, cfg Config, workers int) ([]*Report, error) {
	if cfg.Trace == nil {
		cfg.Trace = trace.FromContext(ctx)
	}
	return parallel.Map(ctx, len(selected), workers,
		func(_ context.Context, i int) (*Report, error) {
			_, sp := cfg.Trace.StartRoot(context.Background(), "exp."+selected[i].ID)
			rep, err := selected[i].Run(cfg)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", selected[i].ID, err)
			}
			return rep, nil
		})
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the registered experiment IDs in paper order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ri, rj := rank(ids[i]), rank(ids[j])
		if ri != rj {
			return ri < rj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// writeSVG renders the chart into cfg.SVGDir, when set — the
// figure-emission hook every chart experiment calls.
func writeSVG(cfg Config, name string, c *chart.Chart) error {
	if cfg.SVGDir == "" {
		return nil
	}
	svg, err := c.RenderSVG()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.SVGDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.SVGDir, name+".svg"), []byte(svg), 0o644)
}
