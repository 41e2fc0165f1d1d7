package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// deviations decodes a WriteJSON artifact into per-experiment deviation
// counts keyed by experiment ID.
func deviations(t *testing.T, data []byte) map[string]int {
	t.Helper()
	var in []jsonReport
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(in))
	for _, jr := range in {
		out[jr.ID] = jr.Deviations
	}
	return out
}

func TestJSONRoundTrip(t *testing.T) {
	reports := []*Report{
		{
			ID: "a", Title: "A",
			Comparisons: []Comparison{
				{Name: "good", Paper: 1, Measured: 1, Tol: 0.01},
				{Name: "bad", Paper: 1, Measured: 5, Tol: 0.01, Note: "why"},
			},
		},
		{ID: "b", Title: "B"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"id": "a"`, `"ok": false`, `"note": "why"`, `"deviations": 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
	if dev := deviations(t, buf.Bytes()); dev["a"] != 1 || dev["b"] != 0 {
		t.Errorf("deviations = %v", dev)
	}
}

func TestJSONFromLiveExperiment(t *testing.T) {
	e, _ := ByID("tableII")
	rep, err := e.Run(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	if dev := deviations(t, buf.Bytes()); dev["tableII"] != 0 {
		t.Errorf("tableII deviations = %d", dev["tableII"])
	}
}
