package campaign

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func fastConfig() Config {
	c := Default()
	c.Reps = 20
	c.Points = 9
	c.VolumeBytes = 1 << 26
	return c
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Config)
	}{
		{"no machines", func(c *Config) { c.Machines = nil }},
		{"unknown machine", func(c *Config) { c.Machines = []string{"cray1"} }},
		{"bad range", func(c *Config) { c.HiIntensity = c.LoIntensity }},
		{"zero lo", func(c *Config) { c.LoIntensity = 0 }},
		{"few points", func(c *Config) { c.Points = 3 }},
		{"zero reps", func(c *Config) { c.Reps = 0 }},
		{"zero volume", func(c *Config) { c.VolumeBytes = 0 }},
	}
	for _, m := range mods {
		c := Default()
		m.mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestParseConfig(t *testing.T) {
	good := `{"machines":["gtx580"],"lo_intensity":0.5,"hi_intensity":8,
		"points":5,"reps":2,"volume_bytes":1048576,"seed":1}`
	c, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if c.Machines[0] != "gtx580" || c.Points != 5 {
		t.Errorf("parsed config = %+v", c)
	}
	if _, err := ParseConfig([]byte("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ParseConfig([]byte(`{"machines":["nope"]}`)); err == nil {
		t.Error("invalid config accepted")
	}
	// Strict like POST /v1/campaign: a misspelt field or anything after
	// the value is an error, not silently dropped.
	misspelt := `{"machines":["gtx580"],"lo_intensity":0.5,"hi_intensity":8,"points":5,"reps":2,"volume_bytes":1048576,"sed":1}`
	if _, err := ParseConfig([]byte(misspelt)); err == nil || !strings.Contains(err.Error(), `unknown field "sed"`) {
		t.Errorf("misspelt field: err = %v, want unknown field", err)
	}
	for _, tail := range []string{"}", "]", " {}"} {
		if _, err := ParseConfig([]byte(good + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("tail %q: err = %v, want trailing data", tail, err)
		}
	}
}

func TestRunRecoversGroundTruth(t *testing.T) {
	cfg := fastConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machines) != 2 {
		t.Fatalf("machines = %d", len(res.Machines))
	}
	for _, mr := range res.Machines {
		if mr.WorstRelErr > 0.10 {
			t.Errorf("%s: worst coefficient error %.1f%%", mr.Name, mr.WorstRelErr*100)
		}
		if mr.TuningQuality < 0.99 {
			t.Errorf("%s: tuning quality %v", mr.Name, mr.TuningQuality)
		}
		if mr.Coefficients.R2 < 0.99 {
			t.Errorf("%s: R² = %v", mr.Name, mr.Coefficients.R2)
		}
		if mr.Fitted == nil {
			t.Fatalf("%s: no fitted machine", mr.Name)
		}
		if err := mr.Fitted.Validate(); err != nil {
			t.Errorf("%s: fitted machine invalid: %v", mr.Name, err)
		}
		// The fitted machine's model must agree with the ground-truth
		// machine's model on the headline balance quantities.
		truth := core.FromMachine(machine.Catalog()[mr.Key], machine.Double)
		fitted := core.FromMachine(mr.Fitted, machine.Double)
		if got, want := fitted.HalfEfficiencyIntensity(), truth.HalfEfficiencyIntensity(); got/want > 1.1 || want/got > 1.1 {
			t.Errorf("%s: fitted B̂ε(y=½) = %v vs truth %v", mr.Name, got, want)
		}
		if fitted.RaceToHaltEffective() != truth.RaceToHaltEffective() {
			t.Errorf("%s: fitted model flips the race-to-halt verdict", mr.Name)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	c := Default()
	c.Machines = []string{"nope"}
	if _, err := Run(c); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRunWithPowerMon(t *testing.T) {
	cfg := fastConfig()
	cfg.Machines = []string{"i7-950"}
	cfg.UsePowerMon = true
	cfg.VolumeBytes = 1 << 28 // long enough runs for the sampler
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machines[0].WorstRelErr > 0.15 {
		t.Errorf("powermon-path fit error %.1f%%", res.Machines[0].WorstRelErr*100)
	}
}

func TestRenderMentionsEverything(t *testing.T) {
	cfg := fastConfig()
	cfg.Machines = []string{"gtx580"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{
		"NVIDIA GTX 580", "εmem", "π0", "R²", "race-to-halt", "tuning quality",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := fastConfig()
	cfg.Machines = []string{"gtx580"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Machines[0].Coefficients != b.Machines[0].Coefficients {
		t.Error("campaign must be deterministic per seed")
	}
}
