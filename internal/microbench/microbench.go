package microbench

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/powermon"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// AutoTune searches the launch-parameter space for the tuning that
// maximises measured throughput of a compute-bound probe kernel — the
// paper's "auto-tuned ... by tuning kernel parameters such as number of
// threads, thread block size, and number of memory requests per
// thread". A coarse power-of-two grid search is followed by coordinate
// hill climbing. Returns the best tuning found and its quality.
//
// Each distinct tuning is probed at most once per call: the grid
// revisits the seed point and the hill climb re-proposes neighbours it
// has already scored (every climb ends with a full ring of re-proposals
// that shows no improvement), so scores are memoized per tuning.
// TestAutoTuneMemoEquivalence pins that the chosen tuning and quality
// are identical to the probe-every-visit search.
func AutoTune(eng *sim.Engine, prec machine.Precision) (sim.Tuning, float64, error) {
	scores := make(map[sim.Tuning]float64, 64)
	var fresh []sim.Tuning
	var specs []sim.KernelSpec
	var runs []sim.Run
	// batchScore probes every distinct not-yet-scored tuning in cands —
	// in first-visit order, two probe kernels each — with one RunBatch
	// call, and memoizes the scores. The engine's sequential noise
	// stream sees exactly the draws probing the fresh tunings one at a
	// time would make, so the memo contents are bit-identical to
	// sequential probing. Every candidate is scored before it is read.
	batchScore := func(cands []sim.Tuning) error {
		fresh = fresh[:0]
	next:
		for _, c := range cands {
			if _, ok := scores[c]; ok {
				continue
			}
			for _, f := range fresh {
				if f == c {
					continue next
				}
			}
			fresh = append(fresh, c)
		}
		if len(fresh) == 0 {
			return nil
		}
		specs = specs[:0]
		for _, c := range fresh {
			compute, memory := probeSpecs(prec, c)
			specs = append(specs, compute, memory)
		}
		if cap(runs) < len(specs) {
			runs = make([]sim.Run, len(specs))
		}
		runs = runs[:len(specs)]
		if err := eng.RunBatch(nil, specs, runs); err != nil {
			return err
		}
		for i, c := range fresh {
			fl := specs[2*i].W / float64(runs[2*i].Duration)
			bw := specs[2*i+1].Q / float64(runs[2*i+1].Duration)
			scores[c] = math.Sqrt(fl * bw)
		}
		return nil
	}

	// Coarse grid over powers of two, opened by the seed point. Every
	// grid candidate carries the seed's Unroll and RequestsPerThread
	// (those knobs only move in the hill climb), so the whole candidate
	// list is known up front and probed as one batch.
	seed := sim.Tuning{Threads: 256, BlockSize: 64, Unroll: 4, RequestsPerThread: 2}
	grid := make([]sim.Tuning, 0, 1+8*5)
	grid = append(grid, seed)
	for _, th := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		for _, bs := range []int{32, 64, 128, 256, 512} {
			grid = append(grid, sim.Tuning{Threads: th, BlockSize: bs, Unroll: seed.Unroll, RequestsPerThread: seed.RequestsPerThread})
		}
	}
	if err := batchScore(grid); err != nil {
		return sim.Tuning{}, 0, err
	}
	best, bestScore := seed, scores[seed]
	for _, t := range grid[1:] {
		if s := scores[t]; s > bestScore {
			best, bestScore = t, s
		}
	}
	// Coordinate descent on the remaining knobs (and refinement of all):
	// each iteration's neighbour ring is known before the scan, so its
	// fresh members are probed as one batch per iteration.
	improved := true
	for iter := 0; improved && iter < 16; iter++ {
		improved = false
		ring := neighbours(best)
		if err := batchScore(ring); err != nil {
			return sim.Tuning{}, 0, err
		}
		for _, cand := range ring {
			if s := scores[cand]; s > bestScore*(1+1e-9) {
				best, bestScore = cand, s
				improved = true
			}
		}
	}
	return best, eng.TuningQuality(best), nil
}

func neighbours(t sim.Tuning) []sim.Tuning {
	var out []sim.Tuning
	mul := func(v, f int) int {
		if v*f < 1 {
			return 1
		}
		return v * f
	}
	div := func(v, f int) int {
		if v/f < 1 {
			return 1
		}
		return v / f
	}
	for _, d := range []struct{ f func(int, int) int }{{mul}, {div}} {
		c := t
		c.Threads = d.f(t.Threads, 2)
		out = append(out, c)
		c = t
		c.BlockSize = d.f(t.BlockSize, 2)
		out = append(out, c)
		c = t
		c.Unroll = d.f(t.Unroll, 2)
		out = append(out, c)
		c = t
		c.RequestsPerThread = d.f(t.RequestsPerThread, 2)
		out = append(out, c)
	}
	return out
}

// probeSpecs returns the two probe kernels a tuning is scored with: one
// compute-bound, one memory-bound. Two probes keep the search landscape
// informative even when one regime is power-throttled: a throttled
// probe's duration stops responding to tuning quality, but the other
// probe's duration still does.
func probeSpecs(prec machine.Precision, t sim.Tuning) (compute, memory sim.KernelSpec) {
	compute = sim.KernelSpec{W: 1e9, Q: 1e5, Precision: prec, Tuning: t}
	memory = sim.KernelSpec{W: 1e4, Q: 1e9, Precision: prec, Tuning: t}
	return compute, memory
}

// Point is one measured intensity point: the paper's (W, Q, T, R)
// tuple plus its measured energy and power.
type Point struct {
	// Intensity is the kernel's W/Q in flop per byte.
	Intensity float64
	// W and Q are the executed flops and bytes.
	W, Q float64
	// Precision is the paper's R regressor (0 single, 1 double).
	Precision machine.Precision
	// Time is the per-run mean wall time over the repetitions.
	Time units.Seconds
	// Energy is the per-run mean energy.
	Energy units.Joules
	// Power is Energy/Time.
	Power units.Watts
	// Throttled reports whether any repetition hit the power cap.
	Throttled bool
	// Reps is the number of repetitions aggregated.
	Reps int
}

// SweepConfig controls a microbenchmark sweep.
type SweepConfig struct {
	// Intensities are the flop:byte targets, e.g. core.LogGrid(0.25, 16, 13).
	Intensities []float64
	// VolumeBytes is the per-run DRAM traffic (default 1 GiB).
	VolumeBytes float64
	// Reps is runs per point (the paper uses 100; default 100).
	Reps int
	// Tuning are the launch parameters (defaults to AutoTune's result
	// if zero and UseAutoTune is set, else the engine optimum shape).
	Tuning sim.Tuning
	// Monitor, if non-nil, measures energy by sampling each run's power
	// (the full §IV-A pipeline). If nil, the run's direct observables
	// are used.
	Monitor *powermon.Monitor
	// KeepReps, when set, emits one Point per repetition instead of one
	// aggregated Point per intensity. The paper's regression uses every
	// individual run as an observation (100 per configuration), which
	// is what drives its p-values below 1e-14.
	KeepReps bool
	// Workers bounds how many (intensity, rep) measurements run
	// concurrently: < 1 means one worker per CPU (GOMAXPROCS), 1 runs
	// the sweep inline. Every repetition draws simulator and monitor
	// noise from a stream derived from (engine seed, precision, grid
	// index, rep), so the returned points are byte-identical at any
	// worker count.
	Workers int
}

// Derivation stream tags: the namespaces keeping a sweep's kernel noise
// and its monitor noise on disjoint derived streams (see
// stats.DeriveSeed).
const (
	// sweepStream namespaces the per-repetition simulator noise.
	sweepStream uint64 = 0x53574550 // "SWEP"
	// monitorStream namespaces the per-repetition power-monitor noise.
	monitorStream uint64 = 0x504d4f4e // "PMON"
)

// repMeasurement is one repetition's contribution to a sweep point.
type repMeasurement struct {
	t, e      float64
	throttled bool
}

// Sweep runs the microbenchmark at each intensity for one precision.
// Kernels are generated as explicit instruction streams (GPU-style
// FMA/load mix), so the W and Q handed to the simulator are the counted
// ops of a real program body, not free parameters.
//
// Repetitions execute on a bounded worker pool (cfg.Workers). Each
// (grid index, rep) task derives its own simulator — and, when a
// monitor is configured, monitor — noise stream from the engine seed,
// so the emitted points do not depend on worker count or scheduling:
// the parallel sweep is byte-identical to the workers = 1 sweep.
//
// ctx cancels the sweep between kernel executions and carries the
// optional trace.Tracer: when tracing is enabled the sweep records a
// "microbench.sweep" span plus one "sweep.rep" span per (grid index,
// repetition) task, with "sim.run" and "powermon.integrate" child
// phases. Tracing reads only the clock — the emitted points are
// byte-identical with tracing on, off, or absent.
func Sweep(ctx context.Context, eng *sim.Engine, prec machine.Precision, cfg SweepConfig) ([]Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Intensities) == 0 {
		return nil, errors.New("microbench: no intensities")
	}
	if cfg.VolumeBytes == 0 {
		cfg.VolumeBytes = 1 << 30
	}
	if cfg.VolumeBytes <= 0 {
		return nil, errors.New("microbench: volume must be positive")
	}
	if cfg.Reps == 0 {
		cfg.Reps = 100
	}
	if cfg.Reps < 1 {
		return nil, errors.New("microbench: reps must be >= 1")
	}

	// Generate every kernel up front, sequentially: program generation
	// is cheap, deterministic, and shared by all of a grid point's reps.
	type gridKernel struct {
		w, q float64
		spec sim.KernelSpec
	}
	grid := make([]gridKernel, len(cfg.Intensities))
	for gi, target := range cfg.Intensities {
		if target <= 0 {
			return nil, fmt.Errorf("microbench: non-positive intensity %g", target)
		}
		fmas, loads := MixFor(target, prec)
		elems := int(cfg.VolumeBytes / float64(loads*prec.WordSize()))
		if elems < 1 {
			elems = 1
		}
		prog, err := GenerateFMAMix(fmas, loads, elems, prec)
		if err != nil {
			return nil, err
		}
		w, q := prog.Counts()
		grid[gi] = gridKernel{w: w, q: q, spec: sim.KernelSpec{W: w, Q: q, Precision: prec, Tuning: cfg.Tuning}}
	}

	ctx, sweepSpan := trace.Start(ctx, "microbench.sweep")
	sweepSpan.Tag("precision", prec.String()).
		Tag("points", len(grid)).
		Tag("reps", cfg.Reps)
	defer sweepSpan.End()

	// One task per (grid point, repetition); results land at their task
	// index, so collection order is independent of execution order.
	reps, err := parallel.Map(ctx, len(grid)*cfg.Reps, cfg.Workers,
		func(ctx context.Context, ti int) (repMeasurement, error) {
			gi, rep := ti/cfg.Reps, ti%cfg.Reps
			ctx, repSpan := trace.Start(ctx, "sweep.rep")
			repSpan.Tag("precision", prec.String()).Tag("grid", gi).Tag("rep", rep)
			defer repSpan.End()
			labels := []uint64{0, uint64(prec), uint64(gi), uint64(rep)}
			labels[0] = sweepStream
			// Borrow the per-rep simulator stream from the pool: the seed
			// (and so the stream) is exactly
			// stats.DeriveRand(eng.Seed(), labels...)'s, without
			// allocating a fresh ~5 KB rand state per repetition.
			rng := stats.BorrowDerived(eng.Seed(), labels...)
			r, err := eng.RunWithCtx(ctx, rng, grid[gi].spec)
			rng.Release()
			if err != nil {
				return repMeasurement{}, err
			}
			m := repMeasurement{t: float64(r.Duration), e: float64(r.Energy), throttled: r.Throttled}
			if cfg.Monitor != nil {
				labels[0] = monitorStream
				_, monSpan := trace.Start(ctx, "powermon.integrate")
				e, err := cfg.Monitor.EnergyDerived(labels, r, r.Duration)
				monSpan.End()
				if err != nil {
					return repMeasurement{}, err
				}
				m.e = float64(e)
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}

	points := make([]Point, 0, len(grid))
	for gi, g := range grid {
		var sumT, sumE float64
		throttled := false
		for rep := 0; rep < cfg.Reps; rep++ {
			m := reps[gi*cfg.Reps+rep]
			throttled = throttled || m.throttled
			if cfg.KeepReps {
				points = append(points, Point{
					Intensity: g.w / g.q,
					W:         g.w,
					Q:         g.q,
					Precision: prec,
					Time:      units.Seconds(m.t),
					Energy:    units.Joules(m.e),
					Power:     units.Watts(m.e / m.t),
					Throttled: m.throttled,
					Reps:      1,
				})
			}
			sumT += m.t
			sumE += m.e
		}
		if cfg.KeepReps {
			continue
		}
		n := float64(cfg.Reps)
		points = append(points, Point{
			Intensity: g.w / g.q,
			W:         g.w,
			Q:         g.q,
			Precision: prec,
			Time:      units.Seconds(sumT / n),
			Energy:    units.Joules(sumE / n),
			Power:     units.Watts(sumE / sumT),
			Throttled: throttled,
			Reps:      cfg.Reps,
		})
	}
	return points, nil
}

// Coefficients are the fitted energy parameters of eq. (9) / Table IV.
type Coefficients struct {
	// EpsSingle is ε_s, energy per single-precision flop (J).
	EpsSingle float64
	// EpsDouble is ε_d = ε_s + Δε_d (J).
	EpsDouble float64
	// EpsMem is ε_mem, energy per byte (J).
	EpsMem float64
	// Pi0 is the constant power (W).
	Pi0 float64
	// R2 is the regression's coefficient of determination.
	R2 float64
	// MaxPValue is the largest coefficient p-value (the paper reports
	// all below 1e-14).
	MaxPValue float64
}

// FitEq9 estimates the Table IV coefficients from measured points of
// both precisions using the paper's regression
//
//	E/W = ε_s + ε_mem·(Q/W) + π0·(T/W) + Δε_d·R.
//
// Points from both precisions must be present, otherwise Δε_d is not
// identifiable.
func FitEq9(points []Point) (*Coefficients, *regress.Result, error) {
	if len(points) < 5 {
		return nil, nil, errors.New("microbench: need at least 5 points to fit eq. 9")
	}
	var haveS, haveD bool
	X := make([][]float64, 0, len(points))
	y := make([]float64, 0, len(points))
	// One flat block backs every design-matrix row: the capacity is
	// exact, so the appends below never reallocate and the row slices
	// stay valid — len(points)+2 allocations become 3.
	cols := make([]float64, 0, 4*len(points))
	for _, p := range points {
		if p.W <= 0 {
			return nil, nil, errors.New("microbench: point with non-positive W")
		}
		r := p.Precision.Indicator()
		if r == 0 {
			haveS = true
		} else {
			haveD = true
		}
		cols = append(cols, 1, p.Q/p.W, float64(p.Time)/p.W, r)
		X = append(X, cols[len(cols)-4:len(cols):len(cols)])
		y = append(y, float64(p.Energy)/p.W)
	}
	if !haveS || !haveD {
		return nil, nil, errors.New("microbench: need points from both precisions")
	}
	res, err := regress.Fit(X, y)
	if err != nil {
		return nil, nil, err
	}
	maxP := 0.0
	for _, pv := range res.PValue {
		maxP = math.Max(maxP, pv)
	}
	return &Coefficients{
		EpsSingle: res.Coef[0],
		EpsDouble: res.Coef[0] + res.Coef[3],
		EpsMem:    res.Coef[1],
		Pi0:       res.Coef[2],
		R2:        res.R2,
		MaxPValue: maxP,
	}, res, nil
}

// Peaks reports the best achieved compute and bandwidth rates for one
// precision — the §IV-B "88.3% of system peak"-style numbers. It runs a
// strongly compute-bound and a strongly memory-bound kernel at the
// given tuning.
func Peaks(eng *sim.Engine, prec machine.Precision, tuning sim.Tuning) (gflops, gbytes float64, err error) {
	cb := sim.KernelSpec{W: 1e11, Q: 1e6, Precision: prec, Tuning: tuning}
	r, err := eng.Run(cb)
	if err != nil {
		return 0, 0, err
	}
	gflops = cb.W / float64(r.Duration) / 1e9
	mb := sim.KernelSpec{W: 1e5, Q: 2e10, Precision: prec, Tuning: tuning}
	r, err = eng.Run(mb)
	if err != nil {
		return 0, 0, err
	}
	gbytes = mb.Q / float64(r.Duration) / 1e9
	return gflops, gbytes, nil
}
