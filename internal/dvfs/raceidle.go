package dvfs

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/powermon"
	"repro/internal/stats"
	"repro/internal/units"
)

// PolicyEnergy returns the energy of completing kernel k on machine
// parameters p pinned at operating point op, then idling at idleW
// watts until the deadline: the pace-to-fill family, with the base
// point giving race-to-idle. It errors if the point cannot meet the
// deadline.
func PolicyEnergy(p core.Params, op machine.OperatingPoint, k core.Kernel, idleW, deadline float64) (float64, error) {
	pp := p.AtOperatingPoint(op)
	t := pp.Time(k)
	if t > deadline*(1+1e-9) {
		return 0, fmt.Errorf("dvfs: point %s needs %g s, deadline %g s", op.Name, t, deadline)
	}
	idle := deadline - t
	if idle < 0 {
		idle = 0
	}
	return pp.Energy(k) + idleW*idle, nil
}

// Crossover returns the constant-power threshold π0* above which
// race-to-idle (finish at full clock, idle until the deadline) beats
// pacing at every slower point of the curve, for kernel k with idle
// draw idleW. p supplies τ and ε; its own Pi0 is NOT consulted — the
// threshold is the value to compare it against.
//
// Derivation: both policies idle until the same deadline, and racing
// idles longer — so racing pays more idle energy, and a cheap idle
// state is what favors it. Per non-base point s,
//
//	E_race − E_pace(s) = A(s) − π0·B(s) + idleW·C(s)
//	A(s) = dyn(1) − dyn(s)          (dynamic-energy saving of pacing)
//	B(s) = p(s)·T(s) − T(1)         (extra constant energy of pacing)
//	C(s) = T(s) − T(1)              (extra idle time racing pays for)
//
// With every B(s) > 0 (guaranteed for compute-bound kernels under a
// validated scaling law) race wins exactly when π0 ≥ max_s
// (A(s) + idleW·C(s))/B(s), and ok is true. An all-memory-bound curve
// has B(s) < 0 with positive pacing savings, so racing never wins:
// the threshold is +Inf, ok still true. Degenerate regimes where some
// B(s) < 0 yet pacing saves nothing are not expressible as a π0 floor;
// then ok is false.
func Crossover(p core.Params, curve []machine.OperatingPoint, k core.Kernel, idleW float64) (float64, bool) {
	t1 := p.Time(k)
	dyn1 := k.W*p.EpsFlop + k.Q*p.EpsMem
	thr := 0.0
	for _, op := range curve {
		if op.IsBase() {
			continue
		}
		// Inline: AtOperatingPoint's W·(τ·scale) rounds apart and moves dvfs_golden.json.
		ts := math.Max(k.W*p.TauFlop*op.TauFlopScale, k.Q*p.TauMem*op.TauMemScale)
		dyns := k.W*p.EpsFlop*op.EpsFlopScale + k.Q*p.EpsMem*op.EpsMemScale
		a := dyn1 - dyns
		b := op.Pi0Scale*ts - t1
		c := ts - t1
		num := a + idleW*c
		switch {
		case b > 0:
			if v := num / b; v > thr {
				thr = v
			}
		case num > 0:
			// Pacing at s saves dynamic energy at no constant-energy or
			// idle cost: it beats racing at any π0.
			return math.Inf(1), true
		case b < 0:
			// Race wins only below a π0 ceiling — not a floor.
			return 0, false
		}
	}
	return thr, true
}

// PacePolicy is one policy's energy in a race-to-idle case.
type PacePolicy struct {
	// Point names the operating point the policy pins.
	Point string `json:"point"`
	// FreqScale is the point's clock fraction.
	FreqScale float64 `json:"freq_scale"`
	// EnergyJ is the policy's total energy over the deadline.
	EnergyJ float64 `json:"energy_j"`
}

// RaceIdleCase is one machine's race-to-idle vs pace-to-fill analysis
// under one idle-state assumption.
type RaceIdleCase struct {
	// Machine is the studied catalog key.
	Machine string `json:"machine"`
	// Scenario names the idle-state assumption: "deep-idle" (waiting is
	// free — the race-to-idle limit) or "shallow-idle" (waiting draws
	// the machine's measured idle power).
	Scenario string `json:"scenario"`
	// Precision is the studied precision name.
	Precision string `json:"precision"`
	// WorkFlops is the fixed work budget.
	WorkFlops float64 `json:"work_flops"`
	// Intensity is the kernel intensity (4·Bτ: compute-bound at every
	// point).
	Intensity float64 `json:"intensity"`
	// DeadlineS is the shared deadline — the slowest point's runtime.
	DeadlineS float64 `json:"deadline_s"`
	// IdleW is the idle draw both policies pay while waiting.
	IdleW float64 `json:"idle_w"`
	// Pi0W is the machine's constant power.
	Pi0W float64 `json:"pi0_w"`
	// CrossoverW is the closed-form π0 threshold above which racing
	// wins.
	CrossoverW float64 `json:"crossover_w"`
	// CrossoverOk reports whether the threshold form is exact here.
	CrossoverOk bool `json:"crossover_ok"`
	// RaceWins reports whether racing's energy is at most every pacing
	// policy's.
	RaceWins bool `json:"race_wins"`
	// RaceEnergyJ is race-to-idle's closed-form energy.
	RaceEnergyJ float64 `json:"race_energy_j"`
	// BestPacePoint names the best pacing point.
	BestPacePoint string `json:"best_pace_point"`
	// BestPaceEnergyJ is the best pacing policy's energy.
	BestPaceEnergyJ float64 `json:"best_pace_energy_j"`
	// Policies lists every policy's energy, slowest point first.
	Policies []PacePolicy `json:"policies"`
	// MeasuredRaceJ is the simulated powermon measurement of the race
	// power profile over the deadline.
	MeasuredRaceJ float64 `json:"measured_race_j"`
	// MeasuredRelErr is |MeasuredRaceJ/RaceEnergyJ − 1|.
	MeasuredRelErr float64 `json:"measured_rel_err"`
}

// stepSource is the race-to-idle power profile: active draw until the
// work completes, idle draw afterwards.
type stepSource struct {
	activeW, idleW float64
	tActive        float64
}

// PowerAt implements powermon.Source.
func (s stepSource) PowerAt(t units.Seconds) units.Watts {
	if float64(t) < s.tActive {
		return units.Watts(s.activeW)
	}
	return units.Watts(s.idleW)
}

// raceMonitorRateHz oversamples the paper's 128 Hz so the step edge of
// the race profile lands within one sample period even in fast runs.
const raceMonitorRateHz = 1024

// raceIdleCases builds one machine's race-vs-pace analysis under both
// idle-state assumptions (deep idle first): closed-form policy energies
// over the curve, the π0 crossover, and a powermon validation of each
// race profile.
func raceIdleCases(m *machine.Machine, key string, cfg Config, seed int64) ([]RaceIdleCase, error) {
	out := make([]RaceIdleCase, 0, 2)
	for sub, sc := range []struct {
		name  string
		idleW float64
	}{
		{"deep-idle", 0},
		{"shallow-idle", float64(m.IdlePower)},
	} {
		c, err := raceIdleCase(m, key, sc.name, sc.idleW, cfg,
			stats.DeriveSeed(seed, uint64(sub)))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// raceIdleCase builds one (machine, idle-state) race-vs-pace case.
func raceIdleCase(m *machine.Machine, key, scenario string, idleW float64, cfg Config, seed int64) (RaceIdleCase, error) {
	p := core.FromMachine(m, machine.Double)
	intensity := 4 * p.BalanceTime()
	k := core.KernelAt(cfg.raceWork(), intensity)
	curve := m.OperatingPoints
	deadline := p.AtOperatingPoint(curve[0]).Time(k)

	out := RaceIdleCase{
		Machine:   key,
		Scenario:  scenario,
		Precision: machine.Double.String(),
		WorkFlops: cfg.raceWork(),
		Intensity: intensity,
		DeadlineS: deadline,
		IdleW:     idleW,
		Pi0W:      p.Pi0,
	}
	bestPace := math.Inf(1)
	for _, op := range curve {
		e, err := PolicyEnergy(p, op, k, idleW, deadline)
		if err != nil {
			return RaceIdleCase{}, err
		}
		out.Policies = append(out.Policies, PacePolicy{Point: op.Name, FreqScale: op.FreqScale, EnergyJ: e})
		if op.IsBase() {
			out.RaceEnergyJ = e
		} else if e < bestPace {
			bestPace = e
			out.BestPacePoint = op.Name
		}
	}
	out.BestPaceEnergyJ = bestPace
	out.RaceWins = out.RaceEnergyJ <= bestPace
	out.CrossoverW, out.CrossoverOk = Crossover(p, curve, k, idleW)

	// Validate the race closed form against a simulated powermon trace
	// of its step power profile: active average power until T(1), idle
	// draw until the deadline.
	channels := powermon.GPUChannels()
	if strings.HasPrefix(key, "i7") {
		channels = powermon.CPUChannels()
	}
	mon, err := powermon.New(channels, powermon.Config{RateHz: raceMonitorRateHz, Seed: seed})
	if err != nil {
		return RaceIdleCase{}, err
	}
	src := stepSource{activeW: p.AveragePower(k), idleW: idleW, tActive: p.Time(k)}
	e, err := mon.Energy(src, units.Seconds(deadline))
	if err != nil {
		return RaceIdleCase{}, err
	}
	out.MeasuredRaceJ = float64(e)
	out.MeasuredRelErr = stats.RelErr(out.MeasuredRaceJ, out.RaceEnergyJ)
	return out, nil
}
