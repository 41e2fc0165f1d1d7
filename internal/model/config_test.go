package model

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/strictjson"
)

// parseFitConfig decodes a fit config the way every JSON config in the
// repo is read (internal/strictjson), then applies the defaults and the
// validation Fit applies.
func parseFitConfig(data []byte) (FitConfig, error) {
	var c FitConfig
	if err := strictjson.Unmarshal(data, &c); err != nil {
		return FitConfig{}, fmt.Errorf("model: parse fit config: %w", err)
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return FitConfig{}, err
	}
	return c, nil
}

// TestParseFitConfig covers the defaults Fit applies and each Validate
// failure, behind the strict decode: unknown fields and trailing data
// are rejected before Validate runs.
func TestParseFitConfig(t *testing.T) {
	good, err := parseFitConfig([]byte(`{"machine": "gtx580"}`))
	if err != nil {
		t.Fatal(err)
	}
	if good.Precision != "double" || good.Points != 9 || good.Reps != 8 || good.Seed != 101 {
		t.Errorf("defaults not applied: %+v", good)
	}

	bad := []struct {
		name, body, wantErr string
	}{
		{"not json", `nope`, "parse"},
		{"unknown field", `{"machine": "gtx580", "turbo": true}`, "unknown field"},
		{"trailing data", `{"machine": "gtx580"} {}`, "trailing data"},
		{"stray brace", `{"machine": "gtx580"}}`, "trailing data"},
		{"stray bracket", `{"machine": "gtx580"}]`, "trailing data"},
		{"no machine", `{}`, "needs a machine"},
		{"bad precision", `{"machine": "gtx580", "precision": "half"}`, "unknown precision"},
		{"one point", `{"machine": "gtx580", "points": 1}`, "points"},
		{"points cap", `{"machine": "gtx580", "points": 5000}`, "points"},
		{"reps cap", `{"machine": "gtx580", "reps": 5000}`, "reps"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFitConfig([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzModelConfig fuzzes Validate behind the strict decode and Fit's
// defaults: any input either errors or yields a config with every
// default filled — never a panic.
func FuzzModelConfig(f *testing.F) {
	f.Add([]byte(`{"machine": "gtx580"}`))
	f.Add([]byte(`{"machine": "i7-950", "precision": "single", "points": 5, "reps": 3}`))
	f.Add([]byte(`{"machine": "fermi", "seed": 99}`))
	f.Add([]byte(`{"machine": "", "points": 4096}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"machine": "gtx580"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseFitConfig(data)
		if err != nil {
			return
		}
		if cfg.Machine == "" || cfg.Points < 2 || cfg.Reps < 1 || cfg.Seed == 0 {
			t.Fatalf("accepted config missing defaults: %+v", cfg)
		}
	})
}
