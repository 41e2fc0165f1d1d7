package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestEnergyAwareBatchClassifierProperty audits every routing decision
// the energy-aware policy makes across 300 randomized trials, and on
// every multi-spec fleet (see multiSpecFleets), against two independent
// re-derivations:
//
//  1. a scalar reference scan with the eq. 10 classification written
//     out inline (the pre-batch router, re-implemented here so the
//     production path and the reference share no classifier code), and
//  2. the same scan driven by core.ClassifyRatios, the classifier the
//     production router (routeFromEstimates) calls.
//
// Both references price with the scalar Fleet.estimate oracle, not the
// price tables the policy routes on. All three must pick the same
// replica for every request, and ClassifyRatios must reproduce the
// inline outcome of every (speedup, greenup) pair. This pins the
// cluster router against any drift in the shared classifier (and vice
// versa).
func TestEnergyAwareBatchClassifierProperty(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		auditEnergyAware(t, fmt.Sprintf("trial %d", trial), propScenario(trial, nil), nil)
	}
	for _, fl := range multiSpecFleets(t) {
		auditEnergyAware(t, fl.sc.Name, fl.sc, fl.tr)
	}
}

// auditEnergyAware runs sc (on tr, or its generated workload when tr is
// nil) under the energy-aware policy alone and checks every decision.
func auditEnergyAware(t *testing.T, label string, sc Scenario, tr *workload.Trace) {
	t.Helper()
	sc.Policies = []string{EnergyAware}
	decisions := 0
	var ts, es []float64
	opts := Options{
		Workers: 1,
		Trace:   tr,
		routeObserver: func(now float64, req workload.Request, chosen int, f *Fleet) {
			decisions++
			n := f.NumReplicas()
			if cap(ts) < n {
				ts, es = make([]float64, n), make([]float64, n)
			}
			ts, es = ts[:n], es[:n]
			for i := 0; i < n; i++ {
				ts[i], es[i] = f.estimate(now, i, req)
			}

			// Scalar reference scan, classifier inlined.
			best := 0
			bestT, bestE := ts[0], es[0]
			for i := 1; i < n; i++ {
				speedup, greenup := bestT/ts[i], bestE/es[i]
				var out core.TradeoffOutcome
				switch {
				case speedup > 1 && greenup > 1:
					out = core.Both
				case speedup > 1:
					out = core.SpeedupOnly
				case greenup > 1:
					out = core.GreenupOnly
				default:
					out = core.Neither
				}
				if got := core.ClassifyRatios(speedup, greenup); got != out {
					t.Fatalf("%s decision %d challenger %d: ClassifyRatios %v != inline %v (speedup=%g greenup=%g)",
						label, decisions, i, got, out, speedup, greenup)
				}
				switch out {
				case core.Both:
					best, bestT, bestE = i, ts[i], es[i]
				case core.GreenupOnly:
					if ts[i] <= 2*bestT {
						best, bestT, bestE = i, ts[i], es[i]
					}
				case core.SpeedupOnly:
					if greenup >= 0.95 {
						best, bestT, bestE = i, ts[i], es[i]
					}
				}
			}
			if best != chosen {
				t.Fatalf("%s decision %d: policy chose %d, scalar reference chose %d",
					label, decisions, chosen, best)
			}

			// The shared classifier must reach the same final choice.
			bBest := 0
			bT, bE := ts[0], es[0]
			for i := 1; i < n; i++ {
				speedup, greenup := bT/ts[i], bE/es[i]
				switch core.ClassifyRatios(speedup, greenup) {
				case core.Both:
					bBest, bT, bE = i, ts[i], es[i]
				case core.GreenupOnly:
					if ts[i] <= 2*bT {
						bBest, bT, bE = i, ts[i], es[i]
					}
				case core.SpeedupOnly:
					if greenup >= 0.95 {
						bBest, bT, bE = i, ts[i], es[i]
					}
				}
			}
			if bBest != chosen {
				t.Fatalf("%s decision %d: policy chose %d, ClassifyRatios scan chose %d",
					label, decisions, chosen, bBest)
			}
		},
	}
	if _, err := RunScenario(context.Background(), sc, opts); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := sc.Workload.Requests
	if tr != nil {
		want = len(tr.Requests)
	}
	if decisions != want {
		t.Fatalf("%s: observed %d decisions for %d requests", label, decisions, want)
	}
}
