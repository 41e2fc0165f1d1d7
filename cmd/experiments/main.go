// Command experiments regenerates every table and figure of the
// paper's evaluation section, and runs the ablations, extensions and
// studies built on it (the FMM, DVFS and model-scorecard studies among
// them), printing paper-reported versus reproduced values and the
// rendered artifacts.
//
// Usage:
//
//	experiments [-run id[,id...]] [-seed N] [-fast] [-workers N] [-list]
//	            [-svg dir] [-md file] [-json file] [-trace out.json]
//
// With no -run, every experiment runs in paper order. -trace records a
// span per experiment (plus per-rep sweep spans) and writes a Chrome
// trace_event JSON timeline; tracing never changes report content.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/trace"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		seed     = flag.Int64("seed", exp.DefaultSeed, "measurement noise seed")
		fast     = flag.Bool("fast", false, "reduced repetitions and sizes")
		svgDir   = flag.String("svg", "", "directory to write figure SVGs into")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		mdPath   = flag.String("md", "", "also write a markdown report (EXPERIMENTS.md style) to this path")
		jsonPath = flag.String("json", "", "also write a machine-readable comparison artifact to this path")
		workers  = flag.Int("workers", 0, "experiments run concurrently (0 = one per CPU; experiments are independent; output order is preserved)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON span timeline to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := exp.Config{Seed: *seed, Fast: *fast, SVGDir: *svgDir}
	if *traceOut != "" {
		cfg.Trace = trace.New(trace.Config{})
	}
	var selected []exp.Experiment
	if *runIDs == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	reports, err := exp.RunAll(context.Background(), selected, cfg, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Trace.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d spans (%d dropped) to %s\n",
			cfg.Trace.Len(), cfg.Trace.Dropped(), *traceOut)
	}
	deviations := 0
	for _, rep := range reports {
		fmt.Print(rep.Render())
		fmt.Println()
		deviations += len(rep.Failures())
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		preamble := fmt.Sprintf(
			"Generated by `go run ./cmd/experiments -md %s` (seed %d, fast=%v).\n"+
				"Re-run any single experiment with `go run ./cmd/experiments -run <id>`;\n"+
				"the per-experiment index mapping artifacts to modules and bench targets\n"+
				"is in `DESIGN.md`. `ok` rows are tolerance-checked against the paper;\n"+
				"`info` rows depend on the authors' exact testbed or variant population,\n"+
				"so the reproduction checks direction and magnitude via the adjacent\n"+
				"boolean rows instead. Benchmarks regenerating each artifact:\n"+
				"`go test -run '^$' -bench BenchmarkExperiment -benchmem .`. Figure SVGs: `-svg figures`.\n"+
				"`-workers N` runs experiments concurrently without changing any\n"+
				"value in this report; `-trace out.json` records a span timeline\n"+
				"(see `docs/OBSERVABILITY.md`).",
			*mdPath, *seed, *fast)
		if err := exp.WriteMarkdown(f, reports, preamble); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := exp.WriteJSON(f, reports); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if deviations > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d comparison(s) deviated from the paper beyond tolerance\n", deviations)
		os.Exit(1)
	}
	fmt.Println("all tolerance-checked comparisons matched the paper")
}
