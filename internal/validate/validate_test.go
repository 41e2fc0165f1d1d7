package validate

import (
	"strings"
	"testing"
)

func TestBoundsHoldAcrossLattice(t *testing.T) {
	s, err := Run(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// 2 machines × 2 precisions × 9 intensities, checked at 3% slack.
	if len(s.Cases) != 36 {
		t.Fatalf("cases = %d", len(s.Cases))
	}
	if s.Slack != 0.03 {
		t.Errorf("slack = %v, want 0.03", s.Slack)
	}
	// §VII: the model lower-bounds time and upper-bounds power.
	if s.TimeBoundViolations != 0 {
		t.Errorf("time lower bound violated %d times (worst %v)", s.TimeBoundViolations, s.WorstTimeRatio)
	}
	if s.PowerBoundViolations != 0 {
		t.Errorf("power upper bound violated %d times (worst %v)", s.PowerBoundViolations, s.WorstPowerRatio)
	}
	// The bounds are meaningful, not vacuous: the worst ratios stay in
	// a realistic band (the simulator runs at 73–99% of peak).
	if s.WorstTimeRatio < 0.97 || s.WorstTimeRatio > 2 {
		t.Errorf("worst time ratio %v outside plausible band", s.WorstTimeRatio)
	}
	if s.WorstPowerRatio > 1.03 || s.WorstPowerRatio < 0.5 {
		t.Errorf("worst power ratio %v outside plausible band", s.WorstPowerRatio)
	}
	// Energy ratios are likewise >= 1 (measured at or above the model's
	// lower bound) within slack.
	for _, c := range s.Cases {
		if c.EnergyRatio < 1-s.Slack {
			t.Errorf("%s/%v I=%.3g: measured energy %.4f of model (below bound)",
				c.Machine, c.Precision, c.Intensity, c.EnergyRatio)
		}
	}
}

func TestThrottledPointsDetected(t *testing.T) {
	// On the lattice's grid, GTX 580 single precision throttles near
	// its Bτ ≈ 8.2.
	s, err := Run(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, c := range s.Cases {
		if c.Throttled {
			any = any || c.Machine == "NVIDIA GTX 580"
			// Throttling only slows things down: the time bound holds a
			// fortiori.
			if c.TimeRatio < 1 {
				t.Errorf("throttled point beats the time bound: %+v", c)
			}
		}
	}
	if !any {
		t.Error("expected at least one throttled lattice point on the GTX 580")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{Reps: -1}); err == nil {
		t.Error("negative reps accepted")
	}
}

func TestRender(t *testing.T) {
	s, err := Run(Config{Seed: 2, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Render()
	for _, want := range []string{"lattice points", "lower-bound", "upper-bound", "energy error"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
