package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rescache"
)

func TestModelsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status = %d", resp.StatusCode)
	}
	var out struct {
		Models []modelSummary `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != len(model.Names()) {
		t.Fatalf("got %d models, want %d", len(out.Models), len(model.Names()))
	}
	defaults := 0
	for i, ms := range out.Models {
		if i > 0 && out.Models[i-1].Name >= ms.Name {
			t.Error("models not sorted by name")
		}
		if !model.Known(ms.Name) {
			t.Errorf("listed model %q not registered", ms.Name)
		}
		if ms.Description == "" {
			t.Errorf("model %q has no description", ms.Name)
		}
		if ms.Default {
			defaults++
			if ms.Name != model.DefaultName() {
				t.Errorf("default flag on %q, want %q", ms.Name, model.DefaultName())
			}
		}
	}
	if defaults != 1 {
		t.Errorf("got %d default models, want exactly 1", defaults)
	}
}

// TestEvalModelParameter pins the model-selection surface of /v1/eval:
// the default and an explicit "analytic" agree on every number (the
// explicit body only adds the echoed model field), "blackbox" answers
// with different cost numbers, and an unknown name is a 400.
func TestEvalModelParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/eval"

	resp, def := post(t, url, `{"machine": "gtx580", "intensity": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default eval status = %d: %s", resp.StatusCode, def)
	}
	resp, explicit := post(t, url, `{"machine": "gtx580", "intensity": 2, "model": "analytic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit analytic status = %d: %s", resp.StatusCode, explicit)
	}
	var defR, expR evalResponse
	if err := json.Unmarshal([]byte(def), &defR); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(explicit), &expR); err != nil {
		t.Fatal(err)
	}
	if defR.Model != "" || expR.Model != "analytic" {
		t.Errorf("model echo: default %q, explicit %q", defR.Model, expR.Model)
	}
	expR.Model = ""
	if defR != expR {
		t.Errorf("explicit analytic differs from default beyond the model field:\n%+v\n%+v", defR, expR)
	}

	resp, bb := post(t, url, `{"machine": "gtx580", "intensity": 2, "model": "blackbox"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blackbox eval status = %d: %s", resp.StatusCode, bb)
	}
	var bbR evalResponse
	if err := json.Unmarshal([]byte(bb), &bbR); err != nil {
		t.Fatal(err)
	}
	if bbR.Model != "blackbox" {
		t.Errorf("blackbox model echo = %q", bbR.Model)
	}
	if bbR.Time == defR.Time && bbR.Energy == defR.Energy {
		t.Error("blackbox predictions identical to analytic — fit not plugged in")
	}
	// Machine geometry never changes with the model.
	if bbR.BalanceTime != defR.BalanceTime || bbR.RooflineTime != defR.RooflineTime || bbR.PowerLine != defR.PowerLine {
		t.Error("machine-geometry fields changed with the model")
	}

	resp, body := post(t, url, `{"machine": "gtx580", "intensity": 2, "model": "psychic"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model status = %d: %s", resp.StatusCode, body)
	}
}

// TestModelHashDistinct pins the cache-keying rule: no model folds
// nothing (pre-model keys unchanged), every registered selector keys
// distinctly from the default and from each other.
func TestModelHashDistinct(t *testing.T) {
	base := evalRequest{Machine: "gtx580", Precision: "double", Work: 1e9, Intensity: 2}
	seen := map[uint64]string{hashEval(base): "<default>"}
	for _, name := range model.Names() {
		q := base
		q.Model = name
		h := hashEval(q)
		if prev, dup := seen[h]; dup {
			t.Errorf("model %q hash collides with %s", name, prev)
		}
		seen[h] = name
	}
	// The default key is exactly the historical (pre-model-field) key,
	// which rescache.EvalKey still exposes.
	if got, want := hashEval(base), rescache.EvalKey("gtx580", "double", 1e9, 2); got != want {
		t.Errorf("default eval hash %#x != EvalKey %#x", got, want)
	}
}

// TestEvalBatchModelMatchesScalar extends the batch-of-one equivalence
// to the model parameter: a blackbox batch of one body-matches the
// blackbox /v1/eval result object.
func TestEvalBatchModelMatchesScalar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, scalar := post(t, ts.URL+"/v1/eval", `{"machine": "i7-950", "intensity": 7, "model": "blackbox"}`)
	resp, batch := post(t, ts.URL+"/v1/evalbatch", `{"machine": "i7-950", "intensities": [7], "model": "blackbox"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, batch)
	}
	var br evalBatchResponse
	if err := json.Unmarshal([]byte(batch), &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 1 {
		t.Fatalf("batch count = %d", br.Count)
	}
	var sr evalResponse
	if err := json.Unmarshal([]byte(scalar), &sr); err != nil {
		t.Fatal(err)
	}
	if br.Results[0] != sr {
		t.Errorf("batch-of-one result differs from scalar eval:\n%+v\n%+v", br.Results[0], sr)
	}
}

// TestCampaignModelCheck drives POST /v1/campaign with a model selector
// and verifies the per-machine ModelCheck block arrives, while the
// default body stays free of it.
func TestCampaignModelCheck(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	small := `"machines": ["gtx580"], "lo_intensity": 0.25, "hi_intensity": 16, "points": 4, "reps": 2, "volume_bytes": 1048576, "seed": 5`
	resp, def := post(t, ts.URL+"/v1/campaign", "{"+small+"}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default campaign status = %d: %s", resp.StatusCode, def)
	}
	if strings.Contains(def, `"ModelCheck"`) {
		t.Error("default campaign body contains a ModelCheck block")
	}
	resp, checked := post(t, ts.URL+"/v1/campaign", "{"+small+`, "model": "analytic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model campaign status = %d: %s", resp.StatusCode, checked)
	}
	var out struct {
		Machines []struct {
			ModelCheck *struct {
				Model  string
				Points int
			}
		}
	}
	if err := json.Unmarshal([]byte(checked), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Machines) != 1 || out.Machines[0].ModelCheck == nil {
		t.Fatalf("campaign with model lacks ModelCheck: %s", checked)
	}
	if mc := out.Machines[0].ModelCheck; mc.Model != "analytic" || mc.Points == 0 {
		t.Errorf("ModelCheck = %+v", mc)
	}
}
