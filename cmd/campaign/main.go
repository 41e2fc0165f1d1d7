// Command campaign runs the complete measurement workflow — auto-tune,
// sweep, measure, fit eq. (9), build a fitted machine description — for
// a set of platforms, and writes the fitted machine JSON files a user
// would feed back into the model.
//
// The campaign executes on a bounded worker pool (-workers, default one
// worker per CPU). Every task derives its noise stream from its
// identity rather than from execution order, so the output is
// byte-identical at any worker count; -workers=1 reproduces the
// sequential run exactly.
//
// With -trace, the run records spans for every phase — per-machine
// tune/sweep/fit, per-rep kernel executions, worker-pool queue waits —
// and writes them as Chrome trace_event JSON (open in chrome://tracing
// or https://ui.perfetto.dev). Tracing reads only the clock, so traced
// runs produce byte-identical campaign output.
//
// Usage:
//
//	campaign [-config file.json] [-out dir] [-powermon] [-seed N] [-reps N] [-workers N] [-trace out.json]
//
// -seed, -reps and -powermon, when passed, override the config's seed,
// reps and use_powermon; without -config the built-in configuration's
// seed is 42. The merged configuration is validated before the run, so
// a bad override exits 2 like a bad config file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/trace"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON campaign configuration (default: built-in)")
		outDir     = flag.String("out", "", "directory for fitted machine JSON files")
		usePM      = flag.Bool("powermon", false, "measure through the sampled power monitor (overrides the config's use_powermon when passed)")
		seed       = flag.Int64("seed", 42, "noise seed (overrides the config file's seed when passed)")
		reps       = flag.Int("reps", 0, "repetitions per point (overrides the config's reps when passed)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU; any value produces identical output)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON span timeline to this file")
	)
	flag.Parse()

	cfg := campaign.Default()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fail(err, 2)
		}
		if cfg, err = campaign.ParseConfig(data); err != nil {
			fail(err, 2)
		}
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.Seed = *seed
		case "reps":
			cfg.Reps = *reps
		case "powermon":
			cfg.UsePowerMon = *usePM
		}
	})
	if err := cfg.Validate(); err != nil {
		fail(err, 2)
	}

	ctx := context.Background()
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
		ctx = trace.WithTracer(ctx, tracer)
	}

	res, err := campaign.RunParallel(ctx, cfg, *workers)
	if err != nil {
		fail(err, 1)
	}
	fmt.Print(res.Render())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err, 1)
		}
		if err := tracer.WriteChrome(f); err != nil {
			fail(err, 1)
		}
		if err := f.Close(); err != nil {
			fail(err, 1)
		}
		// Trace confirmation goes to stderr so stdout stays
		// byte-identical with an untraced run.
		fmt.Fprintf(os.Stderr, "campaign: wrote %d spans (%d dropped) to %s\n",
			tracer.Len(), tracer.Dropped(), *traceOut)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err, 1)
		}
		for _, mr := range res.Machines {
			data, err := mr.Fitted.ToJSON()
			if err != nil {
				fail(err, 1)
			}
			name := strings.ReplaceAll(mr.Key, "/", "_") + "-fitted.json"
			path := filepath.Join(*outDir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fail(err, 1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

// fail prints err on stderr behind one "campaign:" prefix, which the
// campaign package's own errors already carry, and exits with code.
func fail(err error, code int) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "campaign: ") {
		msg = "campaign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}
