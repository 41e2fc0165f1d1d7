// Package sim is the execution substrate: it "runs" kernels against a
// machine description and produces the observables the paper measures —
// wall-clock time and an instantaneous power waveform that the
// PowerMon-2 analogue (internal/powermon) samples.
//
// The simulator realises the machine's ground-truth cost model (time
// from throughputs, energy from per-op coefficients plus constant
// power) together with the imperfections that make measured data look
// like Fig. 4 rather than like the ideal curves: a tuning-dependent
// achieved fraction of peak, kernel launch overhead, run-to-run noise,
// and power-cap throttling (the §V-B effect). It runs at the nominal
// clock: a clock fraction scales the model through
// core.Params.AtOperatingPoint, not here.
package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Tuning holds the launch parameters the paper's auto-tuner searches
// (§IV-B: "number of threads, thread block size, and number of memory
// requests per thread"), plus the unroll depth of the CPU kernel.
type Tuning struct {
	// Threads is the total thread count (GPU) or OpenMP threads (CPU).
	Threads int
	// BlockSize is the thread-block size (GPU) / chunk size (CPU).
	BlockSize int
	// Unroll is the inner-loop unroll depth.
	Unroll int
	// RequestsPerThread is the number of outstanding memory requests
	// each thread issues.
	RequestsPerThread int
}

// KernelSpec describes one benchmark execution request.
type KernelSpec struct {
	// W is the number of useful flops.
	W float64
	// Q is the number of bytes moved to/from slow memory.
	Q float64
	// Precision selects single or double precision.
	Precision machine.Precision
	// Tuning are the launch parameters; zero values get defaults.
	Tuning Tuning
}

// Config controls simulator behaviour.
type Config struct {
	// Seed makes all noise deterministic.
	Seed int64
	// TimeNoiseSD is the relative run-to-run wall-time noise (default 0.01).
	TimeNoiseSD float64
	// PowerNoiseSD is the relative noise on observed average power
	// (default 0.015).
	PowerNoiseSD float64
	// LaunchOverhead is the fixed per-run dispatch latency (default 5 µs).
	LaunchOverhead units.Seconds
	// EnforceCap applies the machine's power cap via throttling
	// (default true; disable for the no-cap ablation).
	EnforceCap bool
	// Ideal disables noise, overhead, and tuning imperfection, making
	// the simulator realise the analytic model exactly.
	Ideal bool
}

// DefaultConfig returns the standard measurement configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		TimeNoiseSD:    0.01,
		PowerNoiseSD:   0.015,
		LaunchOverhead: 5e-6,
		EnforceCap:     true,
	}
}

// Engine executes kernels against one machine.
type Engine struct {
	m    *machine.Machine
	cfg  Config
	rng  *stats.Rand
	resp tuningResponse
	// qual memoizes the last TuningQuality lookup. Sweeps and repeated
	// runs evaluate the same tuning thousands of times; one atomic
	// entry captures that locality without a map or a lock.
	qual atomic.Pointer[qualEntry]
}

// qualEntry is one memoized (tuning, quality) pair.
type qualEntry struct {
	t Tuning
	q float64
}

// New builds an engine for machine m. The machine must validate.
func New(m *machine.Machine, cfg Config) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.TimeNoiseSD < 0 || cfg.PowerNoiseSD < 0 || cfg.LaunchOverhead < 0 {
		return nil, errors.New("sim: negative noise or overhead")
	}
	if cfg.TimeNoiseSD == 0 && !cfg.Ideal {
		cfg.TimeNoiseSD = 0.01
	}
	if cfg.PowerNoiseSD == 0 && !cfg.Ideal {
		cfg.PowerNoiseSD = 0.015
	}
	return &Engine{
		m:    m,
		cfg:  cfg,
		rng:  stats.NewRand(cfg.Seed),
		resp: responseFor(m),
	}, nil
}

// Machine returns the engine's machine description.
func (e *Engine) Machine() *machine.Machine { return e.m }

// tuningResponse holds the machine-specific optimum of the tuning
// space. It is derived deterministically from the machine name so each
// platform has a distinct optimum for the auto-tuner to find.
type tuningResponse struct {
	optThreads, optBlock, optUnroll, optReqs int
}

func responseFor(m *machine.Machine) tuningResponse {
	h := fnv.New32a()
	h.Write([]byte(m.Name))
	v := h.Sum32()
	// Optima on power-of-two lattices in realistic ranges.
	return tuningResponse{
		optThreads: 1 << (7 + v%6),      // 128 .. 4096
		optBlock:   1 << (5 + (v>>3)%4), // 32 .. 256
		optUnroll:  1 << (1 + (v>>6)%4), // 2 .. 16
		optReqs:    1 << (1 + (v>>9)%3), // 2 .. 8
	}
}

// TuningQuality returns a value in (0, 1]: the fraction of the
// machine's best achievable throughput this tuning reaches. Quality is
// 1 exactly at the machine's optimum and decays smoothly (per-parameter
// Gaussian in log2 distance), so a grid search or hill climb converges.
// The most recent result is memoized on the engine (quality is a pure
// function of the tuning), so repeated runs at one tuning skip the
// eight Log2/Exp evaluations; the memo is safe under concurrent RunWith.
func (e *Engine) TuningQuality(t Tuning) float64 {
	if c := e.qual.Load(); c != nil && c.t == t {
		return c.q
	}
	d := withDefaults(t, e.resp)
	q := logDistQuality(d.Threads, e.resp.optThreads, 0.08)
	q *= logDistQuality(d.BlockSize, e.resp.optBlock, 0.05)
	q *= logDistQuality(d.Unroll, e.resp.optUnroll, 0.03)
	q *= logDistQuality(d.RequestsPerThread, e.resp.optReqs, 0.03)
	e.qual.Store(&qualEntry{t: t, q: q})
	return q
}

func logDistQuality(got, opt int, width float64) float64 {
	d := math.Log2(float64(got)) - math.Log2(float64(opt))
	return math.Exp(-width * d * d)
}

func withDefaults(t Tuning, r tuningResponse) Tuning {
	if t.Threads <= 0 {
		t.Threads = r.optThreads
	}
	if t.BlockSize <= 0 {
		t.BlockSize = r.optBlock
	}
	if t.Unroll <= 0 {
		t.Unroll = r.optUnroll
	}
	if t.RequestsPerThread <= 0 {
		t.RequestsPerThread = r.optReqs
	}
	return t
}

// OptimalTuning returns the tuning with quality exactly 1 for this
// engine's machine (what a perfect auto-tuner would find).
func (e *Engine) OptimalTuning() Tuning {
	return Tuning{
		Threads:           e.resp.optThreads,
		BlockSize:         e.resp.optBlock,
		Unroll:            e.resp.optUnroll,
		RequestsPerThread: e.resp.optReqs,
	}
}

// Run is one executed kernel: the simulated measurement record.
type Run struct {
	// Spec is the executed kernel.
	Spec KernelSpec
	// Duration is the observed wall time (noise included).
	Duration units.Seconds
	// Energy is the observed total energy (noise included).
	Energy units.Joules
	// AvgPower is Energy/Duration.
	AvgPower units.Watts
	// TrueDuration is the noise-free wall time, retained so tests can
	// separate model error from measurement error.
	TrueDuration units.Seconds
	// TrueEnergy is the noise-free total energy.
	TrueEnergy units.Joules
	// EnergyFlops is the eq. (2) flop component of TrueEnergy.
	EnergyFlops units.Joules
	// EnergyMem is the transfer component.
	EnergyMem units.Joules
	// EnergyConst is the constant-power component over TrueDuration.
	EnergyConst units.Joules
	// Throttled reports whether the power cap forced a slowdown.
	Throttled bool
	// ripplePeriods is the number of power-waveform ripple cycles.
	ripplePeriods int
}

// PowerAt returns the noise-free instantaneous power at time t within
// the run (0 <= t <= Duration): the steady average plus a small ripple
// that integrates to zero over the whole run, so that integrating
// PowerAt over the duration recovers Energy.
func (r *Run) PowerAt(t units.Seconds) units.Watts {
	if t < 0 || t > r.Duration || r.Duration <= 0 {
		return 0
	}
	avg := float64(r.Energy) / float64(r.Duration)
	phase := 2 * math.Pi * float64(r.ripplePeriods) * float64(t) / float64(r.Duration)
	return units.Watts(avg * (1 + 0.02*math.Sin(phase)))
}

// Run executes the kernel once and returns the measurement record,
// drawing noise from the engine's own sequential stream. Run is NOT
// safe for concurrent use — the stream is shared mutable state; parallel
// callers must use RunWith with a per-task source derived from Seed
// (stats.DeriveRand or stats.BorrowDerived).
func (e *Engine) Run(spec KernelSpec) (*Run, error) {
	return e.RunWith(e.rng, spec)
}

// Seed returns the engine's base noise seed — the root every derived
// per-task stream hangs off.
func (e *Engine) Seed() int64 { return e.cfg.Seed }

// RunWith is Run with an explicit noise source. It reads only immutable
// engine state (plus the lock-free tuning-quality memo), so it is safe
// for concurrent use as long as each goroutine brings its own rng,
// derived from Seed.
func (e *Engine) RunWith(rng *stats.Rand, spec KernelSpec) (*Run, error) {
	r := new(Run)
	if err := e.runInto(rng, spec, r); err != nil {
		return nil, err
	}
	return r, nil
}

// runInto is RunWith writing the record into caller-provided storage,
// letting RunRepeated allocate one Run block per
// call instead of one Run per repetition. The noise draws and
// arithmetic are exactly RunWith's.
func (e *Engine) runInto(rng *stats.Rand, spec KernelSpec, out *Run) error {
	if spec.W < 0 || spec.Q < 0 || spec.W+spec.Q == 0 {
		return fmt.Errorf("sim: kernel must have non-negative W, Q with W+Q > 0 (got W=%g Q=%g)", spec.W, spec.Q)
	}

	pp := e.m.Params(spec.Precision)
	quality := 1.0
	fracFlop, fracBW := 1.0, 1.0
	overhead := float64(e.cfg.LaunchOverhead)
	if !e.cfg.Ideal {
		quality = e.TuningQuality(spec.Tuning)
		fracFlop = pp.AchievedFlopFrac
		fracBW = pp.AchievedBWFrac
	} else {
		overhead = 0
	}

	// Achieved throughputs under tuning.
	flopRate := pp.PeakFlops * fracFlop * quality
	bwRate := e.m.Bandwidth * fracBW * quality
	tFlops := spec.W / flopRate
	tMem := spec.Q / bwRate
	trueT := math.Max(tFlops, tMem) + overhead

	eFlops := spec.W * float64(pp.EnergyPerFlop)
	eMem := spec.Q * float64(e.m.EnergyPerByte)
	dynE := eFlops + eMem
	trueE := dynE + float64(e.m.ConstantPower)*trueT

	throttled := false
	cap := float64(e.m.PowerCap)
	if e.cfg.EnforceCap && cap > 0 && trueT > 0 && trueE/trueT > cap {
		// Throttle: dynamic energy is fixed, time stretches until the
		// average power meets the cap (same closed form as the model's
		// power-cap extension).
		trueT = dynE / (cap - float64(e.m.ConstantPower))
		trueE = cap * trueT
		throttled = true
	}

	obsT := trueT
	obsE := trueE
	if !e.cfg.Ideal {
		obsT = trueT * rng.RelNoise(e.cfg.TimeNoiseSD)
		obsP := trueE / trueT * rng.RelNoise(e.cfg.PowerNoiseSD)
		obsE = obsP * obsT
	}
	*out = Run{
		Spec:          spec,
		Duration:      units.Seconds(obsT),
		Energy:        units.Joules(obsE),
		AvgPower:      units.Watts(obsE / obsT),
		TrueDuration:  units.Seconds(trueT),
		TrueEnergy:    units.Joules(trueE),
		EnergyFlops:   units.Joules(eFlops),
		EnergyMem:     units.Joules(eMem),
		EnergyConst:   units.Joules(trueE - eFlops - eMem),
		Throttled:     throttled,
		ripplePeriods: 8,
	}
	return nil
}

// RunBatch executes specs in order, writing record i into out[i]. The
// noise draws and arithmetic are exactly a sequential loop of RunWith
// calls on the same source, so the records are bit-identical to that
// loop; out provides the storage, so steady-state reuse allocates
// nothing. A nil rng uses the engine's own sequential stream (like Run),
// in which case RunBatch is not safe for concurrent use.
func (e *Engine) RunBatch(rng *stats.Rand, specs []KernelSpec, out []Run) error {
	if len(out) != len(specs) {
		return fmt.Errorf("sim: RunBatch needs len(out) == len(specs) (got %d != %d)", len(out), len(specs))
	}
	if rng == nil {
		rng = e.rng
	}
	for i := range specs {
		if err := e.runInto(rng, specs[i], &out[i]); err != nil {
			return err
		}
	}
	return nil
}

// RunWithCtx is RunWith under a context: when ctx carries a
// trace.Tracer the kernel execution is recorded as a "sim.run" span
// tagged with the precision and whether the power cap throttled the
// run — the per-kernel simulate phase in an execution trace. The
// simulation itself is identical to RunWith; tracing never touches the
// noise stream, so traced and untraced runs produce the same record.
func (e *Engine) RunWithCtx(ctx context.Context, rng *stats.Rand, spec KernelSpec) (*Run, error) {
	if trace.FromContext(ctx) == nil {
		// Fast path: no tracer installed. One context lookup, then the
		// plain run — no span start/end or tag bookkeeping.
		return e.RunWith(rng, spec)
	}
	_, sp := trace.Start(ctx, "sim.run")
	r, err := e.RunWith(rng, spec)
	if sp != nil && err == nil {
		sp.Tag("precision", spec.Precision.String()).Tag("throttled", r.Throttled)
	}
	sp.End()
	return r, err
}

// RunRepeated executes the kernel reps times (the paper runs each
// benchmark 100 times) and returns all records. The records share one
// preallocated block, so a repeated run costs two allocations however
// large reps is; each returned *Run is still independently valid for
// the block's lifetime.
func (e *Engine) RunRepeated(spec KernelSpec, reps int) ([]*Run, error) {
	if reps < 1 {
		return nil, errors.New("sim: reps must be >= 1")
	}
	runs := make([]Run, reps)
	out := make([]*Run, reps)
	for i := range runs {
		if err := e.runInto(e.rng, spec, &runs[i]); err != nil {
			return nil, err
		}
		out[i] = &runs[i]
	}
	return out, nil
}

// Aggregate summarises repeated runs into mean observed time, energy
// and power.
func Aggregate(runs []*Run) (meanT units.Seconds, meanE units.Joules, meanP units.Watts, err error) {
	if len(runs) == 0 {
		return 0, 0, 0, errors.New("sim: no runs to aggregate")
	}
	var st, se float64
	for _, r := range runs {
		st += float64(r.Duration)
		se += float64(r.Energy)
	}
	n := float64(len(runs))
	meanT = units.Seconds(st / n)
	meanE = units.Joules(se / n)
	meanP = units.Watts(float64(meanE) / float64(meanT))
	return meanT, meanE, meanP, nil
}
