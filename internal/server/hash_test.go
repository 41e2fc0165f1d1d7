package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func TestHashCampaignCanonical(t *testing.T) {
	base := campaign.Default()
	h := hashCampaign(base)
	if h != hashCampaign(campaign.Default()) {
		t.Error("identical configs hash differently")
	}
	// Every semantic field must reach the hash.
	mutations := map[string]func(*campaign.Config){
		"machines":     func(c *campaign.Config) { c.Machines = []string{"gtx580"} },
		"machineOrder": func(c *campaign.Config) { c.Machines = []string{"i7-950", "gtx580"} },
		"lo":           func(c *campaign.Config) { c.LoIntensity = 0.5 },
		"hi":           func(c *campaign.Config) { c.HiIntensity = 32 },
		"points":       func(c *campaign.Config) { c.Points = 12 },
		"reps":         func(c *campaign.Config) { c.Reps = 51 },
		"volume":       func(c *campaign.Config) { c.VolumeBytes = 1 << 27 },
		"powermon":     func(c *campaign.Config) { c.UsePowerMon = true },
		"seed":         func(c *campaign.Config) { c.Seed = 43 },
	}
	for name, mutate := range mutations {
		c := campaign.Default()
		mutate(&c)
		if hashCampaign(c) == h {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
	// Machine-list length is folded, so a boundary shift cannot alias:
	// ["ab"] vs ["a","b"]-style confusions differ by the length label.
	a := campaign.Default()
	a.Machines = []string{"gtx580"}
	b := campaign.Default()
	b.Machines = []string{"gtx580", "gtx580"}
	if hashCampaign(a) == hashCampaign(b) {
		t.Error("list length not folded")
	}
}

func TestHashEvalDomainSeparation(t *testing.T) {
	q := evalRequest{Machine: "gtx580", Precision: "double", Work: 1e9, Intensity: 4}
	if hashEval(q) == hashEval(evalRequest{Machine: "gtx580", Precision: "double", Work: 1e9, Intensity: 8}) {
		t.Error("intensity not hashed")
	}
	if hashEval(q) == hashEval(evalRequest{Machine: "gtx580", Precision: "single", Work: 1e9, Intensity: 4}) {
		t.Error("precision not hashed")
	}
	// Eval and campaign keys live in disjoint domains even for the
	// degenerate empty values.
	if hashEval(evalRequest{}) == hashCampaign(campaign.Config{}) {
		t.Error("eval/campaign hash domains collide")
	}
}

func TestHashEvalBatchCanonical(t *testing.T) {
	base := evalBatchRequest{Machine: "gtx580", Precision: "double",
		Work: []float64{1e9, 2e9}, Intensities: []float64{1, 4}}
	h := hashEvalBatch(base)
	same := evalBatchRequest{Machine: "gtx580", Precision: "double",
		Work: []float64{1e9, 2e9}, Intensities: []float64{1, 4}}
	if hashEvalBatch(same) != h {
		t.Error("identical batches hash differently")
	}
	mutations := map[string]evalBatchRequest{
		"machine":   {Machine: "fermi", Precision: "double", Work: []float64{1e9, 2e9}, Intensities: []float64{1, 4}},
		"precision": {Machine: "gtx580", Precision: "single", Work: []float64{1e9, 2e9}, Intensities: []float64{1, 4}},
		"work":      {Machine: "gtx580", Precision: "double", Work: []float64{1e9, 3e9}, Intensities: []float64{1, 4}},
		"intensity": {Machine: "gtx580", Precision: "double", Work: []float64{1e9, 2e9}, Intensities: []float64{1, 8}},
		"order":     {Machine: "gtx580", Precision: "double", Work: []float64{2e9, 1e9}, Intensities: []float64{4, 1}},
		"length":    {Machine: "gtx580", Precision: "double", Work: []float64{1e9}, Intensities: []float64{1}},
	}
	for name, q := range mutations {
		if hashEvalBatch(q) == h {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
	// A batch of one never collides with the equivalent single eval key:
	// the domain labels differ.
	one := evalBatchRequest{Machine: "gtx580", Precision: "double",
		Work: []float64{1e9}, Intensities: []float64{4}}
	if hashEvalBatch(one) == hashEval(evalRequest{Machine: "gtx580", Precision: "double", Work: 1e9, Intensity: 4}) {
		t.Error("evalbatch/eval hash domains collide")
	}
}

// TestRequestHashPinned pins each POST endpoint's canonical key to a
// literal. No golden can catch a changed key — a flat LRU behaves the
// same under any collision-free key — so a change to the folding, the
// version or a domain label must fail here instead.
func TestRequestHashPinned(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	s.engine = (&stubEngine{}).fn
	for _, tc := range []struct{ path, body, hash string }{
		{"/v1/eval", `{"machine":"gtx580","precision":"double","intensity":4}`, "fc555dea4fbc9888"},
		{"/v1/eval", `{"machine":"gtx580","precision":"double","intensity":4,"model":"blackbox"}`, "4cbe7579f0f56fcd"},
		{"/v1/evalbatch", `{"machine":"i7-950","precision":"single","intensities":[0.5,2]}`, "d147d5cc4f93ffd8"},
		{"/v1/evalbatch", `{"machine":"i7-950","precision":"single","intensities":[0.5,2],"work":[1e9,2e9]}`, "5f73b7f6aa13b031"},
		{"/v1/campaign", smallCampaign, "d9599612930003e1"},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.path, tc.body, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Request-Hash"); got != tc.hash {
			t.Errorf("%s %s: X-Request-Hash = %s, want %s", tc.path, tc.body, got, tc.hash)
		}
	}
}
