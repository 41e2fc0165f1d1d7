package cluster

import (
	"context"
	"testing"
)

// dvfsScenario returns the catalog's hetero_dvfs scenario shrunk to a
// test-sized request count.
func dvfsScenario(t *testing.T, requests int) Scenario {
	t.Helper()
	sc, ok := Scenarios()["hetero_dvfs"]
	if !ok {
		t.Fatal("catalog lost the hetero_dvfs scenario")
	}
	sc.Workload.Requests = requests
	return sc
}

// TestHeteroDVFSBeatsPinnedMax pins the scenario's reason to exist: with
// the energy-aware router, the DVFS fleet (downclocked GPUs, half-off
// multi-SM part) finishes the same workload on less total energy than
// the identical fleet pinned to base clock.
func TestHeteroDVFSBeatsPinnedMax(t *testing.T) {
	sc := dvfsScenario(t, 20000)
	sc.Policies = []string{EnergyAware}
	pinned := PinMaxFrequency(sc)
	for i, spec := range pinned.Replicas {
		if spec.OperatingPoint != "" {
			t.Fatalf("PinMaxFrequency left replica %d pinned to %q", i, spec.OperatingPoint)
		}
	}
	dvfsRep, err := RunScenario(context.Background(), sc, Options{Workers: 2})
	if err != nil {
		t.Fatalf("dvfs run: %v", err)
	}
	maxRep, err := RunScenario(context.Background(), pinned, Options{Workers: 2})
	if err != nil {
		t.Fatalf("pinned-max run: %v", err)
	}
	dvfsJ := dvfsRep.Policies[0].EnergyJoules
	maxJ := maxRep.Policies[0].EnergyJoules
	if dvfsRep.Policies[0].Requests != sc.Workload.Requests ||
		maxRep.Policies[0].Requests != sc.Workload.Requests {
		t.Fatal("a run dropped requests; energy comparison is meaningless")
	}
	if !(dvfsJ < maxJ) {
		t.Fatalf("DVFS fleet used %.0f J, pinned-max fleet %.0f J; pinning should save energy", dvfsJ, maxJ)
	}
}

// TestReplicaReportCarriesOperatingPoint checks the per-replica report
// echoes the pinned point so fleet artifacts are self-describing.
func TestReplicaReportCarriesOperatingPoint(t *testing.T) {
	sc := dvfsScenario(t, 4000)
	sc.Policies = []string{RoundRobin}
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	for i, rr := range rep.Policies[0].Replicas {
		if got, want := rr.OperatingPoint, sc.Replicas[i].OperatingPoint; got != want {
			t.Fatalf("replica %d reports point %q, spec says %q", i, got, want)
		}
	}
}

// TestOperatingPointSpecValidation covers the pinned-point spec rule:
// points must exist on the machine's curve, which for an i7-950 is the
// DVFS catalog's.
func TestOperatingPointSpecValidation(t *testing.T) {
	sc := dvfsScenario(t, 100)
	sc.Replicas[2].OperatingPoint = "9.99x"
	if _, err := RunScenario(context.Background(), sc, Options{}); err == nil {
		t.Fatal("RunScenario accepted an unknown operating point")
	}
	// A point on an i7-950: the DVFS catalog entry carries a curve even
	// though the base catalog entry is curveless.
	sc = dvfsScenario(t, 100)
	sc.Replicas[0].OperatingPoint = "0.70x"
	if err := sc.Validate(); err != nil {
		t.Fatalf("i7-950@0.70x should validate via the DVFS catalog: %v", err)
	}
}

// TestDVFSOnlyMachineRunsAtBaseClock checks multi-SM catalog machines —
// which exist only in the DVFS catalog — work as plain replicas too.
func TestDVFSOnlyMachineRunsAtBaseClock(t *testing.T) {
	sc := smokeScenario(t, 2000)
	sc.Replicas[0].Machine = "gtx580-4sm"
	sc.Policies = []string{RoundRobin}
	rep, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if rep.Policies[0].Replicas[0].Requests == 0 {
		t.Fatal("round robin routed nothing to the multi-SM replica")
	}
}
