package cluster

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// smokeScenario returns the catalog's smoke scenario, optionally shrunk
// further for the cheapest tests.
func smokeScenario(t *testing.T, requests int) Scenario {
	t.Helper()
	sc, ok := Scenarios()["smoke"]
	if !ok {
		t.Fatal("catalog lost the smoke scenario")
	}
	if requests > 0 {
		sc.Workload.Requests = requests
	}
	return sc
}

// TestSmokeScenarioAccounting drives the smoke scenario and checks the
// conservation laws every cell must satisfy: all requests complete, and
// each one is accounted exactly once as a cache hit, a coalesced join,
// or an engine run.
func TestSmokeScenarioAccounting(t *testing.T) {
	sc := smokeScenario(t, 0)
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if len(rep.Policies) != len(PolicyNames()) {
		t.Fatalf("got %d policy cells, want %d", len(rep.Policies), len(PolicyNames()))
	}
	for _, pr := range rep.Policies {
		if pr.Requests != sc.Workload.Requests {
			t.Fatalf("%s: completed %d of %d requests", pr.Policy, pr.Requests, sc.Workload.Requests)
		}
		if pr.SimSeconds <= 0 || pr.ThroughputRPS <= 0 {
			t.Fatalf("%s: degenerate timing: %+v", pr.Policy, pr)
		}
		if pr.P50ms > pr.P99ms || pr.P99ms > pr.P999ms {
			t.Fatalf("%s: percentiles out of order: %+v", pr.Policy, pr)
		}
		if pr.EnergyJoules <= 0 {
			t.Fatalf("%s: no energy accounted", pr.Policy)
		}
		var routed, hits, coalesced, engine int
		for _, rr := range pr.Replicas {
			routed += rr.Requests
			hits += int(rr.Hits)
			coalesced += rr.Coalesced
			engine += rr.EngineRuns
		}
		if routed != sc.Workload.Requests {
			t.Fatalf("%s: routed %d requests, want %d", pr.Policy, routed, sc.Workload.Requests)
		}
		if hits+coalesced+engine != sc.Workload.Requests {
			t.Fatalf("%s: hits %d + coalesced %d + engine %d != %d",
				pr.Policy, hits, coalesced, engine, sc.Workload.Requests)
		}
		if hits == 0 {
			t.Fatalf("%s: Zipf traffic produced zero cache hits", pr.Policy)
		}
	}
}

// TestWorkerCountInvariance pins the tentpole determinism contract at
// the API level: the marshalled report is byte-identical whether policy
// cells run serially or across many workers.
func TestWorkerCountInvariance(t *testing.T) {
	sc := smokeScenario(t, 5000)
	var first []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := RunScenario(context.Background(), sc, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatalf("workers=%d: Marshal: %v", workers, err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("workers=%d report differs from workers=1", workers)
		}
	}
}

// TestReplayMatchesGenerated pins replay: running a scenario on an
// explicitly replayed trace produces the same report as letting the
// scenario generate the identical workload itself.
func TestReplayMatchesGenerated(t *testing.T) {
	sc := smokeScenario(t, 4000)
	tr, err := workload.Generate(sc.Workload)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	data, err := tr.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	replayed, err := workload.ParseTrace(data)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	a, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	b, err := RunScenario(context.Background(), sc, Options{Workers: 1, Trace: replayed})
	if err != nil {
		t.Fatalf("replayed run: %v", err)
	}
	ab, _ := a.Marshal()
	bb, _ := b.Marshal()
	if !bytes.Equal(ab, bb) {
		t.Fatal("replayed trace produced a different report")
	}
}

// TestClosedLoopScenario checks the closed-loop plumbing end to end:
// every generated request completes even though arrivals are chained
// through completions.
func TestClosedLoopScenario(t *testing.T) {
	sc := smokeScenario(t, 3000)
	sc.Workload.Kind = workload.Closed
	sc.Workload.Clients = 32
	sc.Workload.ThinkSeconds = 0.05
	sc.Policies = []string{RoundRobin, LeastLoaded}
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	for _, pr := range rep.Policies {
		if pr.Requests != sc.Workload.Requests {
			t.Fatalf("%s: completed %d of %d closed-loop requests", pr.Policy, pr.Requests, sc.Workload.Requests)
		}
	}
}

// TestSingleKeyCoalescingAndHits drives many copies of one content key
// at one replica: exactly one engine run happens, the arrivals during
// that run coalesce onto it, and everything after is a cache hit.
func TestSingleKeyCoalescingAndHits(t *testing.T) {
	sc := smokeScenario(t, 500)
	sc.Replicas = sc.Replicas[:1]
	sc.Workload.Keys = 1
	sc.Workload.Rate = 1000
	sc.Policies = []string{RoundRobin}
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	rr := rep.Policies[0].Replicas[0]
	if rr.EngineRuns != 1 {
		t.Fatalf("one key, one replica: %d engine runs, want 1", rr.EngineRuns)
	}
	if int(rr.Hits)+rr.Coalesced != sc.Workload.Requests-1 {
		t.Fatalf("hits %d + coalesced %d should cover the other %d requests",
			rr.Hits, rr.Coalesced, sc.Workload.Requests-1)
	}
	if rr.Coalesced == 0 {
		t.Fatal("1000 rps against a ~20ms kernel should coalesce some arrivals")
	}
}

// TestEnergyAwareSpreadsUnderLoad checks the energy-aware policy is not
// a degenerate route-to-zero: with identical replicas the eq. 10 rules
// make a busy incumbent lose on speedup, so load spreads.
func TestEnergyAwareSpreadsUnderLoad(t *testing.T) {
	sc := smokeScenario(t, 4000)
	sc.Workload.Keys = 100000 // effectively no cache hits: pure load test
	sc.Workload.Rate = 400    // ~2x one i7-950's capacity
	sc.Policies = []string{EnergyAware}
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	for _, rr := range rep.Policies[0].Replicas {
		if rr.Requests == 0 {
			t.Fatalf("energy-aware starved replica %d: %+v", rr.ID, rep.Policies[0].Replicas)
		}
	}
}

// TestTracerReceivesVirtualSpans checks the -trace plumbing: running
// with a tracer records bounded, virtually-timestamped replica.serve
// spans tagged with their scenario and does not perturb the report.
func TestTracerReceivesVirtualSpans(t *testing.T) {
	sc := smokeScenario(t, 3000)
	base, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	tr := trace.New(trace.Config{Capacity: 1 << 14})
	traced, err := RunScenario(context.Background(), sc, Options{Workers: 1, Tracer: tr})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	bb, _ := base.Marshal()
	tb, _ := traced.Marshal()
	if !bytes.Equal(bb, tb) {
		t.Fatal("tracing changed the report bytes")
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no spans recorded")
	}
	if len(evs) > len(PolicyNames())*maxSpansPerPolicy {
		t.Fatalf("recorded %d spans, cap is %d per policy", len(evs), maxSpansPerPolicy)
	}
	for _, ev := range evs {
		if ev.Name != "replica.serve" {
			t.Fatalf("unexpected span %q", ev.Name)
		}
		if ev.Dur <= 0 || ev.Track == 0 {
			t.Fatalf("span missing virtual timing: %+v", ev)
		}
		if len(ev.Tags) == 0 || ev.Tags[0] != (trace.Tag{Key: "scenario", Val: sc.Name}) {
			t.Fatalf("span not tagged with scenario %q: %+v", sc.Name, ev.Tags)
		}
	}
}

// TestFleetAllocsPerRequest pins the event loop's allocation budget at
// 0.05 allocations per simulated request, on one smoke scenario run (an
// open loop) and one closed-loop smoke variant, counting everything a
// RunScenario call allocates: workload generation, kernel indexing,
// price tables, per-cell fleets and reports. The steady state allocates
// nothing per request: the replica caches reuse their slab slots and
// finished flights are pooled, so what is left is set-up and the growth
// of per-cell slices and maps (measured 0.013 open, 0.019 closed).
func TestFleetAllocsPerRequest(t *testing.T) {
	closed := smokeScenario(t, 0)
	closed.Workload.Kind = workload.Closed
	closed.Workload.Clients = 64
	closed.Workload.ThinkSeconds = 0.05
	for _, sc := range []Scenario{smokeScenario(t, 0), closed} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := RunScenario(context.Background(), sc, Options{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", sc.Workload.Kind, err)
		}
		simulated := 0
		for _, p := range rep.Policies {
			simulated += p.Requests
		}
		perReq := float64(after.Mallocs-before.Mallocs) / float64(simulated)
		t.Logf("%s: %d allocations for %d simulated requests (%.3f per request)",
			sc.Workload.Kind, after.Mallocs-before.Mallocs, simulated, perReq)
		if perReq > 0.05 {
			t.Errorf("%s: %.3f allocations per simulated request, budget 0.05", sc.Workload.Kind, perReq)
		}
	}
}

// TestScenarioCatalogValidates ensures every cataloged scenario is
// runnable and the 1M entries meet the fleet-scale floor.
func TestScenarioCatalogValidates(t *testing.T) {
	for name, sc := range Scenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name == "smoke" {
			continue
		}
		if sc.Workload.Requests < 1<<20 {
			t.Errorf("%s: %d requests, fleet scenarios drive >= 1M", name, sc.Workload.Requests)
		}
		if len(sc.Replicas) < 8 {
			t.Errorf("%s: %d replicas, fleet scenarios use >= 8", name, len(sc.Replicas))
		}
	}
}

// TestRunScenarioRejectsInvalid checks scenario and replayed-trace
// validation surfaces through RunScenario.
func TestRunScenarioRejectsInvalid(t *testing.T) {
	sc := smokeScenario(t, 100)
	sc.Replicas[0].Machine = "abacus"
	if _, err := RunScenario(context.Background(), sc, Options{}); err == nil {
		t.Fatal("RunScenario accepted an unknown machine")
	}
	sc = smokeScenario(t, 100)
	sc.Policies = []string{"teleport"}
	if _, err := RunScenario(context.Background(), sc, Options{}); err == nil {
		t.Fatal("RunScenario accepted an unknown policy")
	}

	// A trace handed over in Options is checked as ParseTrace checks a
	// recorded one, not simulated as it stands.
	sc = smokeScenario(t, 100)
	gen, err := workload.Generate(sc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(*workload.Trace)) *workload.Trace {
		tr := *gen
		tr.Requests = append([]workload.Request(nil), gen.Requests...)
		edit(&tr)
		return &tr
	}
	for _, c := range []struct {
		name, want string
		tr         *workload.Trace
	}{
		{"closed trace with more clients than requests", "more clients than requests", edited(func(tr *workload.Trace) {
			tr.Closed, tr.Clients, tr.Requests = true, 4, tr.Requests[:3]
		})},
		{"open trace with decreasing arrivals", "arrival times decrease", edited(func(tr *workload.Trace) {
			tr.Requests[10].Time, tr.Requests[11].Time = tr.Requests[11].Time, tr.Requests[10].Time
		})},
		{"negative work", "invalid kernel", edited(func(tr *workload.Trace) {
			tr.Requests[5].Work = -1
		})},
	} {
		_, err := RunScenario(context.Background(), sc, Options{Workers: 1, Trace: c.tr})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunScenario returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
