// Command roofline prints roofline, arch-line and power-line tables and
// charts for a catalog machine (or a machine description loaded from
// JSON), answering the questions the model is built for: where are the
// balance points, how big is the balance gap, is race-to-halt sound,
// and what performance/efficiency should a kernel of intensity I expect.
//
// Usage:
//
//	roofline [-machine gtx580|i7-950|fermi] [-json file] [-prec single|double]
//	         [-lo I] [-hi I] [-points N] [-chart] [-svgfile file]
//	roofline [-machine gtx580|i7-950|fermi] [-json file] [-prec single|double] -intensity I
//	roofline -compare [-prec single|double]
//
// A flag the chosen mode does not read is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

func main() {
	var (
		machineKey = flag.String("machine", "gtx580", "catalog machine: gtx580, i7-950, fermi")
		jsonPath   = flag.String("json", "", "load machine description from JSON file instead")
		precStr    = flag.String("prec", "double", "precision: single or double")
		lo         = flag.Float64("lo", 0.25, "lowest intensity (flop/byte)")
		hi         = flag.Float64("hi", 64, "highest intensity (flop/byte)")
		points     = flag.Int("points", 13, "table rows")
		showChart  = flag.Bool("chart", false, "render ASCII charts")
		svgFile    = flag.String("svgfile", "", "write the roofline/arch-line chart as SVG to this path")
		atI        = flag.Float64("intensity", 0, "analyse one kernel intensity in detail")
		compare    = flag.Bool("compare", false, "compare every catalog machine side by side and exit")
	)
	flag.Parse()

	prec, err := machine.ParsePrecision(*precStr)
	if err == nil {
		err = checkFlags(*lo, *hi, *points, *atI)
	}
	if err == nil {
		err = checkMode(*compare, *atI)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofline:", err)
		os.Exit(2)
	}
	if *compare {
		compareMachines(prec)
		return
	}

	m, err := loadMachine(*machineKey, *jsonPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofline:", err)
		os.Exit(2)
	}
	p := core.FromMachine(m, prec)

	fmt.Printf("machine: %s (%v precision)\n", m.Name, prec)
	fmt.Printf("  peak:            %.4g GFLOP/s, %.4g GB/s\n", p.PeakFlopsRate()/1e9, 1/p.TauMem/1e9)
	fmt.Printf("  peak efficiency: %.4g GFLOP/J (ε̂flop = %s)\n", p.PeakEfficiency()/1e9, units.FormatSI(p.EpsFlopHat(), "J", 3))
	fmt.Printf("  Bτ = %.3g flop/byte, Bε = %.3g flop/byte, gap Bε/Bτ = %.3g\n",
		p.BalanceTime(), p.BalanceEnergy(), p.BalanceGap())
	fmt.Printf("  B̂ε at half efficiency: %.3g flop/byte\n", p.HalfEfficiencyIntensity())
	fmt.Printf("  constant power π0 = %.4g W; max model power %.4g W\n", p.Pi0, p.MaxPower())
	fmt.Printf("  race-to-halt effective: %v\n\n", p.RaceToHaltEffective())

	if *atI > 0 {
		analyse(p, *atI)
		return
	}

	grid := core.LogGrid(*lo, *hi, *points)
	fmt.Printf("%12s %14s %14s %12s %12s %12s\n",
		"I (fl/B)", "speed frac", "GFLOP/s", "eff frac", "GFLOP/J", "power (W)")
	for _, i := range grid {
		fmt.Printf("%12.4g %14.4g %14.4g %12.4g %12.4g %12.4g\n",
			i,
			p.RooflineTime(i), p.RooflineTime(i)*p.PeakFlopsRate()/1e9,
			p.ArchlineEnergy(i), p.ArchlineEnergy(i)*p.PeakEfficiency()/1e9,
			p.PowerLine(i))
	}

	if *showChart || *svgFile != "" {
		roof := make([]float64, len(grid))
		arch := make([]float64, len(grid))
		for i, x := range grid {
			roof[i] = p.RooflineTime(x)
			arch[i] = p.ArchlineEnergy(x)
		}
		c := &chart.Chart{
			Title:  fmt.Sprintf("%s (%v): roofline and arch line", m.Name, prec),
			XLabel: "Intensity (flop:byte)", YLabel: "Relative performance",
			LogX: true, LogY: true,
			Series: []chart.Series{
				{Name: "roofline (time)", X: grid, Y: roof, Marker: 'r', Line: true},
				{Name: "arch line (energy)", X: grid, Y: arch, Marker: 'e', Line: true},
			},
			VLines: []chart.VLine{
				{X: p.BalanceTime(), Label: "Bτ"},
				{X: p.HalfEfficiencyIntensity(), Label: "B̂ε(y=1/2)"},
			},
		}
		if *showChart {
			out, err := c.RenderASCII()
			if err != nil {
				fmt.Fprintln(os.Stderr, "roofline:", err)
				os.Exit(1)
			}
			fmt.Println()
			fmt.Print(out)
		}
		if *svgFile != "" {
			svg, err := c.RenderSVG()
			if err == nil {
				err = os.WriteFile(*svgFile, []byte(svg), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "roofline:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *svgFile)
		}
	}
}

// checkFlags rejects, before anything prints, the flag values a run
// would misread: a non-finite float, a negative -intensity (0 means
// off), or an intensity range core.LogGrid cannot span.
func checkFlags(lo, hi float64, points int, atI float64) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-lo", lo}, {"-hi", hi}, {"-intensity", atI}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case atI < 0:
		return fmt.Errorf("-intensity must be positive (0 = no single-kernel analysis), got %g", atI)
	case lo <= 0 || hi <= lo:
		return fmt.Errorf("bad intensity range: need 0 < -lo < -hi, got -lo %g -hi %g", lo, hi)
	case points < 2:
		return fmt.Errorf("-points must be >= 2, got %d", points)
	}
	return nil
}

// checkMode rejects a set flag that the chosen mode never reads, which
// would otherwise be dropped without a word: -compare reads only -prec,
// and the -intensity analysis prints no table and no chart.
func checkMode(compare bool, atI float64) error {
	var mode string
	var unread func(name string) bool
	switch {
	case compare:
		mode = "-compare"
		unread = func(name string) bool { return name != "compare" && name != "prec" }
	case atI > 0:
		mode = "-intensity"
		unread = func(name string) bool {
			return slices.Contains([]string{"lo", "hi", "points", "chart", "svgfile"}, name)
		}
	default:
		return nil
	}
	var names []string
	flag.Visit(func(f *flag.Flag) {
		if unread(f.Name) {
			names = append(names, "-"+f.Name)
		}
	})
	if len(names) > 0 {
		return fmt.Errorf("%s does not read %s", mode, strings.Join(names, " "))
	}
	return nil
}

func compareMachines(prec machine.Precision) {
	keys := []string{"fermi", "gtx580", "i7-950", "future"}
	fmt.Printf("catalog comparison (%v precision):\n", prec)
	fmt.Printf("%-10s %12s %10s %8s %10s %12s %14s %14s\n",
		"machine", "GFLOP/s", "GB/s", "Bτ", "B̂ε(y=½)", "gap Bε/Bτ", "peak GFLOP/J", "race-to-halt")
	for _, key := range keys {
		m := machine.Catalog()[key]
		p := core.FromMachine(m, prec)
		fmt.Printf("%-10s %12.4g %10.4g %8.3g %10.3g %12.3g %14.4g %14v\n",
			key, p.PeakFlopsRate()/1e9, 1/p.TauMem/1e9,
			p.BalanceTime(), p.HalfEfficiencyIntensity(), p.BalanceGap(),
			p.PeakEfficiency()/1e9, p.RaceToHaltEffective())
	}
	fmt.Println("\nper-intensity winners (time vs energy):")
	fmt.Printf("%10s %16s %16s\n", "I (fl/B)", "fastest", "greenest")
	for _, i := range core.LogGrid(0.25, 64, 9) {
		bestT, bestE := "", ""
		var vT, vE float64
		for _, key := range keys {
			p := core.FromMachine(machine.Catalog()[key], prec)
			if s := p.RooflineTime(i) * p.PeakFlopsRate(); s > vT {
				vT, bestT = s, key
			}
			if e := p.ArchlineEnergy(i) * p.PeakEfficiency(); e > vE {
				vE, bestE = e, key
			}
		}
		fmt.Printf("%10.3g %16s %16s\n", i, bestT, bestE)
	}
}

func loadMachine(key, jsonPath string) (*machine.Machine, error) {
	if jsonPath != "" {
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			return nil, err
		}
		return machine.FromJSON(data)
	}
	m, ok := machine.Catalog()[key]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q (try gtx580, i7-950, fermi)", key)
	}
	return m, nil
}

func analyse(p core.Params, i float64) {
	k := core.KernelAt(1e9, i)
	fmt.Printf("kernel at I = %.4g flop/byte (per Gflop of work):\n", i)
	fmt.Printf("  time bound:     %v (roofline %.4g of peak)\n", p.TimeBound(k), p.RooflineTime(i))
	fmt.Printf("  energy bound:   %v (arch line %.4g of peak)\n", p.EnergyBound(k), p.ArchlineEnergy(i))
	fmt.Printf("  time:           %s\n", units.FormatSI(p.Time(k), "s", 4))
	fmt.Printf("  energy:         %s (flops %s, mem %s, constant %s)\n",
		units.FormatSI(p.Energy(k), "J", 4),
		units.FormatSI(p.EnergyFlops(k), "J", 3),
		units.FormatSI(p.EnergyMem(k), "J", 3),
		units.FormatSI(p.EnergyConstant(k), "J", 3))
	fmt.Printf("  average power:  %.4g W\n", p.AveragePower(k))
	if p.PowerCap > 0 && p.AveragePower(k) > p.PowerCap {
		fmt.Printf("  power cap %.4g W ACTIVE: capped time %s, capped energy %s\n",
			p.PowerCap,
			units.FormatSI(p.CappedTime(k), "s", 4),
			units.FormatSI(p.CappedEnergy(k), "J", 4))
	}
	fmt.Printf("  greenup bound:  any work–communication trade-off needs f < %.4g (m→∞)\n", p.MaxExtraWork(i))
}
