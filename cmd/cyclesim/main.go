// Command cyclesim runs the cycle-level scoreboard on a generated
// kernel body and reports the achieved rates, utilizations and the
// diagnosed bottleneck — the ground truth behind the model's
// "sufficient concurrency" assumption (footnote 2) and the achieved
// fractions of §IV-B.
//
// Usage:
//
//	cyclesim [-core nehalem|fermi] [-fmas N] [-loads N] [-elements N]
//	         [-prec single|double] [-window N] [-sweep]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/pipeline"
)

func main() {
	var (
		coreKey  = flag.String("core", "nehalem", "core model: nehalem or fermi")
		fmas     = flag.Int("fmas", 16, "FMA ops per element")
		loads    = flag.Int("loads", 1, "loads per element")
		elements = flag.Int("elements", 4096, "elements processed")
		precStr  = flag.String("prec", "single", "precision: single or double")
		window   = flag.Int("window", 0, "independent elements in flight (0 = core default)")
		sweep    = flag.Bool("sweep", false, "sweep the window size and exit")
	)
	flag.Parse()
	if *window < 0 {
		fmt.Fprintf(os.Stderr, "cyclesim: -window must be >= 0 (0 = core default), got %d\n", *window)
		os.Exit(2)
	}

	var cfg pipeline.Config
	switch *coreKey {
	case "nehalem":
		cfg = pipeline.NehalemLike()
	case "fermi":
		cfg = pipeline.FermiLike()
	default:
		fmt.Fprintf(os.Stderr, "cyclesim: unknown core %q\n", *coreKey)
		os.Exit(2)
	}
	prec, err := machine.ParsePrecision(*precStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclesim:", err)
		os.Exit(2)
	}
	prog, err := microbench.GenerateFMAMix(*fmas, *loads, *elements, prec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclesim:", err)
		os.Exit(2)
	}
	w, q := prog.Counts()
	fmt.Printf("kernel: %d FMA + %d load per element × %d elements (%v): W=%.3g flops, Q=%.3g bytes, I=%.3g fl/B\n",
		*fmas, *loads, *elements, prec, w, q, w/q)
	fmt.Printf("core: %d-wide, FMA lat %d, load lat %d, MLP %d, %.0f B/cyc @ %.2f GHz → rooflines %.1f GFLOP/s, %.1f GB/s\n",
		cfg.IssueWidth, cfg.FMALatency, cfg.LoadLatency, cfg.MaxOutstanding,
		cfg.BytesPerCycle, cfg.ClockHz/1e9, cfg.PeakFlopRate()/1e9, cfg.PeakBandwidth()/1e9)

	if *sweep {
		fmt.Printf("%8s %14s %14s %12s\n", "window", "GFLOP/s", "GB/s", "bound")
		for _, wd := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			c := cfg
			c.Window = wd
			r, err := pipeline.Simulate(prog, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cyclesim:", err)
				os.Exit(1)
			}
			fmt.Printf("%8d %14.2f %14.2f %12s\n", wd, r.FlopRate/1e9, r.Bandwidth/1e9, r.Bound)
		}
		return
	}

	if *window > 0 {
		cfg.Window = *window
	}
	r, err := pipeline.Simulate(prog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclesim:", err)
		os.Exit(1)
	}
	fmt.Println(r)
}
