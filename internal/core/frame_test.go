package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/machine"
)

// A kernel must finish within a frame of F seconds. The processor
// either races at the base point and idles out the frame, or paces at
// the slowest s-law point that fills it, s_F = W·τflop/F. Both are
// dvfs.PolicyEnergy at an operating point applied by
// core.Params.AtOperatingPoint.

// frameEnergies returns the energies of racing and of pacing kernel k
// through a frame of F seconds with idle draw idleW, and the pace point.
func frameEnergies(t *testing.T, p core.Params, k core.Kernel, frame, idleW float64) (race, pace float64, sF machine.OperatingPoint) {
	t.Helper()
	race, err := dvfs.PolicyEnergy(p, machine.BasePoint(), k, idleW, frame)
	if err != nil {
		t.Fatal(err)
	}
	sF = machine.SLawPoint(k.W * p.TauFlop / frame)
	pace, err = dvfs.PolicyEnergy(p, sF, k, idleW, frame)
	if err != nil {
		t.Fatal(err)
	}
	return race, pace, sF
}

func TestFrameEnergyRaceAccounting(t *testing.T) {
	p := core.FromMachine(machine.GTX580(), machine.Double)
	k := core.KernelAt(1e10, 100)
	run := p.Time(k)
	frame := 2 * run
	const idle = 39.6 // the paper's measured GTX 580 idle power
	e, err := dvfs.PolicyEnergy(p, machine.BasePoint(), k, idle, frame)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Energy(k) + idle*(frame-run)
	if math.Abs(e-want) > 1e-9*want {
		t.Errorf("race frame energy = %v, want %v", e, want)
	}
	if _, err := dvfs.PolicyEnergy(p, machine.BasePoint(), k, idle, run/2); err == nil {
		t.Error("short frame accepted")
	}
}

func TestFrameEnergyPaceFillsFrame(t *testing.T) {
	p := core.FromMachine(machine.GTX580(), machine.Double)
	p.Pi0 = 0 // make pacing clearly attractive
	k := core.KernelAt(1e10, 1e6)
	run := p.Time(k)
	frame := 2 * run
	_, pace, sF := frameEnergies(t, p, k, frame, 0)
	if math.Abs(sF.FreqScale-0.5) > 1e-12 {
		t.Fatalf("pace point for a frame of two runs: s = %v, want 0.5", sF.FreqScale)
	}
	if paced := p.AtOperatingPoint(sF).Time(k); math.Abs(paced/frame-1) > 1e-9 {
		t.Errorf("paced run takes %v s, want the %v s frame", paced, frame)
	}
	// Pacing at s = 1/2 quarters the dynamic flop energy.
	want := k.W*p.EpsFlop/4 + k.Q*p.EpsMem
	if math.Abs(pace-want) > 1e-9*want {
		t.Errorf("pace energy = %v, want %v", pace, want)
	}
	// A clock floored at s = 1/2 in a long frame runs at 1/2 and idles
	// the remainder.
	half := machine.SLawPoint(0.5)
	q := p.AtOperatingPoint(half)
	frame = 10 * run
	e, err := dvfs.PolicyEnergy(p, half, k, 5, frame)
	if err != nil {
		t.Fatal(err)
	}
	want = q.Energy(k) + 5*(frame-q.Time(k))
	if math.Abs(e-want) > 1e-9*want {
		t.Errorf("floored pace energy = %v, want %v", e, want)
	}
	// A frame shorter than the paced run is an error.
	if _, err := dvfs.PolicyEnergy(p, half, k, 0, run); err == nil {
		t.Error("short frame accepted")
	}
}

func TestBestFrameStrategyRegimes(t *testing.T) {
	// Today's GTX 580: active constant power 122 W, idle 39.6 W —
	// racing into the low-power idle state wins.
	p := core.FromMachine(machine.GTX580(), machine.Double)
	k := core.KernelAt(1e10, 1e6)
	frame := 2 * p.Time(k)
	race, pace, _ := frameEnergies(t, p, k, frame, 39.6)
	if race > pace {
		t.Errorf("GTX 580 frame: race %v J, pace %v J, want race to win", race, pace)
	}
	// With π0 = 0 and no idle draw, pacing wins by cutting dynamic
	// energy.
	p0 := p
	p0.Pi0 = 0
	race, pace, _ = frameEnergies(t, p0, k, frame, 0)
	if pace >= race {
		t.Errorf("π0=0 frame: race %v J, pace %v J, want pace to win", race, pace)
	}
}

func TestFrameIdlePowerTipsTheScale(t *testing.T) {
	// Same machine, same kernel, same frame: cheap idle favours racing,
	// expensive idle favours pacing (there is nowhere good to hide).
	p := core.FromMachine(machine.GTX580(), machine.Double)
	p.Pi0 = 30 // modest active constant power so pacing can compete
	k := core.KernelAt(1e10, 1e6)
	frame := 3 * p.Time(k)
	if race, pace, _ := frameEnergies(t, p, k, frame, 0); race > pace {
		t.Errorf("free idle: race %v J, pace %v J, want race to win", race, pace)
	}
	if race, pace, _ := frameEnergies(t, p, k, frame, 120); race <= pace {
		t.Errorf("costly idle: race %v J, pace %v J, want pace to win", race, pace)
	}
}
