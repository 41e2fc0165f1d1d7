package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int64
	gate := make(chan struct{})
	const n = 32
	var wg sync.WaitGroup
	leaders := make([]bool, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, leader, err := g.do(context.Background(), 99, func() ([]byte, error) {
				runs.Add(1)
				<-gate
				return []byte("shared"), nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			leaders[i] = leader
			bodies[i] = body
		}(i)
	}
	// Wait until the leader is inside fn, then release.
	for g.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times", runs.Load())
	}
	var nLeaders int
	for i := range leaders {
		if leaders[i] {
			nLeaders++
		}
		if string(bodies[i]) != "shared" {
			t.Errorf("waiter %d got %q", i, bodies[i])
		}
	}
	if nLeaders != 1 {
		t.Errorf("%d leaders, want 1", nLeaders)
	}
	if g.inFlight() != 0 {
		t.Errorf("flight leaked: %d in flight", g.inFlight())
	}
}

// TestFlightGroupWaiterCancellation: a waiter abandoning the flight
// gets its own context error; the flight keeps running and later
// waiters still get the result.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	started := make(chan struct{})
	var leaderBody []byte
	var leaderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		leaderBody, _, leaderErr = g.do(context.Background(), 1, func() ([]byte, error) {
			close(started)
			<-gate
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.do(ctx, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v", err)
	}
	close(gate)
	<-done
	if leaderErr != nil || string(leaderBody) != "late" {
		t.Errorf("leader outcome corrupted by waiter cancellation: %q, %v", leaderBody, leaderErr)
	}
}

// TestFlightGroupSequentialReruns: after a flight completes, the next
// request with the same key runs fn again (caching is a separate
// layer).
func TestFlightGroupSequentialReruns(t *testing.T) {
	g := newFlightGroup()
	var runs int
	for i := 0; i < 3; i++ {
		body, leader, err := g.do(context.Background(), 5, func() ([]byte, error) {
			runs++
			return []byte("x"), nil
		})
		if err != nil || !leader || string(body) != "x" {
			t.Fatalf("iteration %d: %q %v %v", i, body, leader, err)
		}
	}
	if runs != 3 {
		t.Errorf("runs = %d, want 3", runs)
	}
}

// TestFlightGroupErrorPropagation: a failing flight hands the same
// error to every waiter and is not retained.
func TestFlightGroupErrorPropagation(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	_, _, err := g.do(context.Background(), 2, func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if g.inFlight() != 0 {
		t.Error("failed flight leaked")
	}
}
