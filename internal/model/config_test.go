package model

import (
	"strings"
	"testing"
)

// TestParseFitConfig covers the defaults Fit applies and each Validate
// failure, on configs built in Go: no binary decodes a fit config.
func TestParseFitConfig(t *testing.T) {
	good := FitConfig{Machine: "gtx580"}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Precision != "double" || good.Points != 9 || good.Reps != 8 || good.Seed != 101 {
		t.Errorf("defaults not applied: %+v", good)
	}

	bad := []struct {
		name    string
		cfg     FitConfig
		wantErr string
	}{
		{"no machine", FitConfig{}, "needs a machine"},
		{"bad precision", FitConfig{Machine: "gtx580", Precision: "half"}, "unknown precision"},
		{"one point", FitConfig{Machine: "gtx580", Points: 1}, "points"},
		{"points cap", FitConfig{Machine: "gtx580", Points: 5000}, "points"},
		{"reps cap", FitConfig{Machine: "gtx580", Reps: 5000}, "reps"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.withDefaults().Validate()
			if err == nil {
				t.Fatalf("accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
