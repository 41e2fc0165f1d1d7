package sim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
)

// The pooled Run storage and the memoized tuning quality replaced
// per-repetition allocations in the hot loop. These tests pin the
// optimized paths bit-identical to the pre-optimization behaviour: same
// noise streams, same records.

func noisyEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	e, err := New(machine.GTX580(), DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func specForTest() KernelSpec {
	return KernelSpec{W: 1e9, Q: 2.5e8, Precision: machine.Single}
}

func runsEqual(t *testing.T, got, want []*Run, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Errorf("%s: run %d = %+v, want %+v (bit-exact)", label, i, *got[i], *want[i])
		}
	}
}

func TestRunRepeatedMatchesSequentialRun(t *testing.T) {
	// RunRepeated writes into one pooled block; a plain Run loop on an
	// identically seeded engine is the pre-optimization behaviour.
	spec := specForTest()
	got, err := noisyEngine(t, 42).RunRepeated(spec, 64)
	if err != nil {
		t.Fatal(err)
	}
	ref := noisyEngine(t, 42)
	want := make([]*Run, 64)
	for i := range want {
		r, err := ref.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	runsEqual(t, got, want, "RunRepeated")
}

func TestTuningQualityMemoTransparent(t *testing.T) {
	e := noisyEngine(t, 1)
	fresh := noisyEngine(t, 1)
	tunings := []Tuning{
		{},
		e.OptimalTuning(),
		{Threads: 64, BlockSize: 32, Unroll: 2, RequestsPerThread: 2},
		{Threads: 8192, BlockSize: 512, Unroll: 16, RequestsPerThread: 8},
	}
	// Interleave repeatedly so every lookup pattern (miss, hit, evict,
	// re-miss) occurs; each answer must equal a never-memoized engine's.
	for round := 0; round < 3; round++ {
		for _, tn := range tunings {
			got := e.TuningQuality(tn)
			want := fresh.TuningQuality(tn)
			// fresh memoizes too; recompute it cold to be sure.
			cold := noisyEngine(t, 1).TuningQuality(tn)
			if got != want || got != cold {
				t.Errorf("TuningQuality(%+v) = %v, want %v (cold %v)", tn, got, want, cold)
			}
		}
	}
}

func TestRunWithSteadyStateAllocs(t *testing.T) {
	e := noisyEngine(t, 5)
	spec := specForTest()
	rng := stats.NewRand(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.RunWith(rng, spec); err != nil {
			t.Fatal(err)
		}
	})
	// One Run record per call; everything else is stack or memoized.
	if allocs > 1 {
		t.Errorf("RunWith allocates %.1f objects per run, want <= 1", allocs)
	}
}

func TestRunRepeatedAllocs(t *testing.T) {
	e := noisyEngine(t, 5)
	spec := specForTest()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.RunRepeated(spec, 64); err != nil {
			t.Fatal(err)
		}
	})
	// One Run block and one pointer slice per call, however many reps.
	if allocs > 2 {
		t.Errorf("RunRepeated(64) allocates %.1f objects per call, want <= 2", allocs)
	}
}
