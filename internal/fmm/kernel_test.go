package fmm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func buildSmall(t *testing.T, n int, q int, seed int64) (*Tree, ULists) {
	t.Helper()
	p := UniformPoints(n, seed)
	tr, err := Build(p, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.BuildULists()
}

func TestInteractMatchesDirect(t *testing.T) {
	tr, u := buildSmall(t, 300, 16, 4)
	pairs, err := tr.Interact(u)
	if err != nil {
		t.Fatal(err)
	}
	if pairs <= 0 {
		t.Fatal("no pairs evaluated")
	}
	phi := append([]float64(nil), tr.Pts.Phi...)
	want, err := tr.DirectNearField(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phi {
		if stats.RelErr(phi[i], want[i]) > 1e-12 {
			t.Fatalf("φ[%d] = %v, direct %v", i, phi[i], want[i])
		}
	}
}

func TestInteractF32MatchesF64(t *testing.T) {
	// The paper verifies its GPU kernel against an equivalent CPU
	// kernel; the float32 rsqrt version must agree with the float64
	// reference to single precision.
	tr, u := buildSmall(t, 300, 16, 8)
	if _, err := tr.Interact(u); err != nil {
		t.Fatal(err)
	}
	ref := append([]float64(nil), tr.Pts.Phi...)
	pairs32, err := tr.InteractF32(u)
	if err != nil {
		t.Fatal(err)
	}
	pairs64, _ := tr.Interact(u)
	if pairs32 != pairs64 {
		t.Errorf("pair counts differ: %d vs %d", pairs32, pairs64)
	}
	worst := 0.0
	// Re-run f32 (Interact overwrote Phi).
	if _, err := tr.InteractF32(u); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] == 0 {
			continue
		}
		e := stats.RelErr(tr.Pts.Phi[i], ref[i])
		if e > worst {
			worst = e
		}
	}
	// rsqrtf with two Newton steps is good to ~1e-6 per term; sums of
	// ~hundreds of terms stay well under 1e-4.
	if worst > 1e-4 {
		t.Errorf("float32 kernel worst relative error %v", worst)
	}
}

func TestInteractSelfPairSkipped(t *testing.T) {
	// Two coincident points: the self-pair and the coincident pair both
	// have r = 0 and are skipped without NaN/Inf.
	p := NewPoints(2)
	p.X[0], p.Y[0], p.Z[0], p.D[0] = 0.5, 0.5, 0.5, 1
	p.X[1], p.Y[1], p.Z[1], p.D[1] = 0.5, 0.5, 0.5, 2
	tr, err := Build(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	pairs, err := tr.Interact(u)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 0 {
		t.Errorf("coincident pairs evaluated: %d", pairs)
	}
	for i, v := range tr.Pts.Phi {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("φ[%d] = %v", i, v)
		}
	}
}

func TestInteractErrors(t *testing.T) {
	tr, _ := buildSmall(t, 50, 8, 1)
	if _, err := tr.Interact(ULists{}); err == nil {
		t.Error("mismatched U-lists accepted")
	}
	if _, err := tr.InteractF32(ULists{}); err == nil {
		t.Error("mismatched U-lists accepted (f32)")
	}
	if _, err := tr.DirectNearField(ULists{}); err == nil {
		t.Error("mismatched U-lists accepted (direct)")
	}
}

func TestRsqrtfAccuracy(t *testing.T) {
	for _, x := range []float32{1e-6, 0.01, 0.5, 1, 2, 100, 1e6} {
		got := float64(rsqrtf(x))
		want := 1 / math.Sqrt(float64(x))
		// The bit-trick seed with two Newton steps converges to ~5e-6
		// relative error, the accuracy class of the GPU instruction.
		if stats.RelErr(got, want) > 1e-5 {
			t.Errorf("rsqrtf(%v) = %v, want %v", x, got, want)
		}
	}
	if rsqrtf(0) != 0 || rsqrtf(-1) != 0 {
		t.Error("rsqrtf of non-positive should be 0")
	}
}

func TestWorkCount(t *testing.T) {
	if Work(100) != 1100 {
		t.Errorf("Work(100) = %v, want 1100 (11 flops per pair)", Work(100))
	}
	if FlopsPerPair != 11 {
		t.Errorf("Algorithm 1 counts 11 flops per pair")
	}
}

func TestPhaseIsComputeBound(t *testing.T) {
	// §V-C: with q in the hundreds, FMM-U has intensity O(q) and is
	// compute-bound. Check W/Q_dram on a study-sized instance.
	res, err := RunStudy(StudyConfig{
		Seed:     5,
		N:        2048,
		LeafSize: 128,
		Variants: []Variant{{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := res.Results[0].IntensityOf()
	if i < 10 {
		t.Errorf("FMM-U intensity = %v flop/byte; should be strongly compute-bound", i)
	}
}

func BenchmarkInteractF32(b *testing.B) {
	p := UniformPoints(2000, 1)
	tr, err := Build(p, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	u := tr.BuildULists()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InteractF32(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInteractF32Serial(b *testing.B) {
	p := UniformPoints(4000, 1)
	tr, err := Build(p, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	u := tr.BuildULists()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InteractF32(u); err != nil {
			b.Fatal(err)
		}
	}
}
