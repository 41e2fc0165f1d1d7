package fmm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestGenerateVariantsPopulation(t *testing.T) {
	vs := GenerateVariants()
	// The paper: "approximately 390 different code implementations", of
	// which "about 160" use only L1/L2.
	if len(vs) != 392 {
		t.Errorf("population = %d, want 392", len(vs))
	}
	cacheOnly := 0
	refs := 0
	seen := map[string]bool{}
	for i, v := range vs {
		if v.ID != i {
			t.Errorf("variant %d has ID %d", i, v.ID)
		}
		if v.IsCacheOnly() {
			cacheOnly++
		}
		if v.IsReference() {
			refs++
		}
		if seen[v.Name()] {
			t.Errorf("duplicate variant %s", v.Name())
		}
		seen[v.Name()] = true
		if e := v.Efficiency(); e < 0.1 || e > 0.95 {
			t.Errorf("%s: efficiency %v out of range", v.Name(), e)
		}
	}
	if cacheOnly != 168 {
		t.Errorf("cache-only class = %d, want 168", cacheOnly)
	}
	if refs != 1 {
		t.Errorf("reference variants = %d, want exactly 1", refs)
	}
}

func TestEfficiencyRespondsToParameters(t *testing.T) {
	base := Variant{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: 1}
	blocked := base
	blocked.TargetTile = 16
	if blocked.Efficiency() <= base.Efficiency() {
		t.Error("register blocking should raise efficiency")
	}
	aos := base
	aos.Layout = AoS
	// Jitter is ±3%; the AoS penalty is 5%, so compare with headroom.
	if aos.Efficiency() >= base.Efficiency()+0.06 {
		t.Error("AoS should not beat SoA decisively")
	}
}

func TestVariantStrings(t *testing.T) {
	v := Variant{ID: 3, Shape: Shape{Layout: AoS, Staging: SharedMem, TargetTile: 4}, Unroll: 2, VectorWidth: 1}
	name := v.Name()
	for _, want := range []string{"v003", "AoS", "shared", "t4", "u2", "w1"} {
		if !strings.Contains(name, want) {
			t.Errorf("name %q missing %q", name, want)
		}
	}
	if SoA.String() != "SoA" || AoS.String() != "AoS" {
		t.Error("layout strings")
	}
	if CacheOnly.String() != "cache" || SharedMem.String() != "shared" || TextureMem.String() != "texture" {
		t.Error("staging strings")
	}
}

func TestSimulateTrafficShapes(t *testing.T) {
	p := UniformPoints(1024, 6)
	tr, err := Build(p, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	ref := Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}
	t0, err := tr.SimulateTraffic(u, ref, h)
	if err != nil {
		t.Fatal(err)
	}
	if t0.CacheBytes() <= 0 || t0.DRAMReadBytes <= 0 {
		t.Fatalf("reference traffic empty: %+v", t0)
	}
	if t0.SharedBytes != 0 || t0.TextureBytes != 0 {
		t.Error("cache-only shape must not use staging paths")
	}

	// Register blocking cuts cache traffic.
	blocked := ref
	blocked.TargetTile = 16
	t1, err := tr.SimulateTraffic(u, blocked, h)
	if err != nil {
		t.Fatal(err)
	}
	if t1.CacheBytes() >= t0.CacheBytes() {
		t.Errorf("tile 16 cache bytes %v should be below tile 1's %v", t1.CacheBytes(), t0.CacheBytes())
	}

	// Shared staging moves traffic off the caches onto the scratchpad.
	sh := ref
	sh.Staging = SharedMem
	t2, err := tr.SimulateTraffic(u, sh, h)
	if err != nil {
		t.Fatal(err)
	}
	if t2.SharedBytes <= 0 {
		t.Error("shared variant has no scratchpad traffic")
	}
	if t2.CacheBytes() >= t0.CacheBytes() {
		t.Error("shared staging should reduce cache traffic")
	}

	tex := ref
	tex.Staging = TextureMem
	t3, err := tr.SimulateTraffic(u, tex, h)
	if err != nil {
		t.Fatal(err)
	}
	if t3.TextureBytes <= 0 {
		t.Error("texture variant has no texture traffic")
	}

	// DRAM traffic is bounded below by the compulsory footprint.
	footprint := float64(1024 * recordBytes)
	if t0.DRAMReadBytes < footprint/2 {
		t.Errorf("DRAM reads %v below half the dataset footprint %v", t0.DRAMReadBytes, footprint)
	}

	// A non-positive tile is rejected.
	bad := ref
	bad.TargetTile = 0
	if _, err := tr.SimulateTraffic(u, bad, h); err == nil {
		t.Error("tile 0 accepted")
	}
	if _, err := tr.SimulateTraffic(ULists{}, ref, h); err == nil {
		t.Error("mismatched U-lists accepted")
	}
}

func TestAoSReducesLineFetches(t *testing.T) {
	// AoS packs a particle's 16 bytes into one line; SoA scatters them
	// over four arrays. On a cold cache AoS needs fewer DRAM line
	// fetches for the same records.
	p := UniformPoints(2048, 11)
	tr, err := Build(p, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	soa := Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 8}
	aos := soa
	aos.Layout = AoS
	ts, err := tr.SimulateTraffic(u, soa, h)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := tr.SimulateTraffic(u, aos, h)
	if err != nil {
		t.Fatal(err)
	}
	// Both layouts touch the same logical data; totals should be the
	// same order of magnitude.
	if ta.DRAMReadBytes > ts.DRAMReadBytes*2 || ts.DRAMReadBytes > ta.DRAMReadBytes*8 {
		t.Errorf("layout DRAM traffic implausible: SoA %v vs AoS %v", ts.DRAMReadBytes, ta.DRAMReadBytes)
	}
}

// The §V-C headline reproduction on a reduced variant subset (the full
// population runs in the benchmark and the experiments binary).
func TestStudyReproducesSectionVC(t *testing.T) {
	if testing.Short() {
		t.Skip("study is expensive")
	}
	// A spread of cache-only variants plus some staged ones.
	var subset []Variant
	for _, v := range GenerateVariants() {
		if v.Unroll == 1 && v.VectorWidth == 1 {
			subset = append(subset, v)
		}
	}
	res, err := RunStudy(StudyConfig{Seed: 42, N: 2048, LeafSize: 192, Variants: subset})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOnlyCount == 0 {
		t.Fatal("no cache-only variants in study")
	}
	// The fitted cache cost recovers the planted 187 pJ/B.
	if stats.RelErr(res.FittedCachePJ, res.TrueCachePJ) > 0.10 {
		t.Errorf("fitted cache energy %v pJ/B, planted %v", res.FittedCachePJ, res.TrueCachePJ)
	}
	// eq. (2) substantially underestimates (paper: 33% on average).
	if res.MeanUnderestimate < 0.15 || res.MeanUnderestimate > 0.65 {
		t.Errorf("mean underestimate = %v, want a substantial fraction", res.MeanUnderestimate)
	}
	// Refined estimates are accurate (paper: 4.1% median error).
	if res.MedianRefinedErr > 0.06 {
		t.Errorf("median refined error = %v, want small", res.MedianRefinedErr)
	}
	// Every cache-only variant individually: eq2 underestimates, and
	// refinement improves the estimate for the strongly-underestimated.
	for _, r := range res.Results {
		if !r.Variant.IsCacheOnly() {
			continue
		}
		if r.Eq2RelError() > 0 {
			t.Errorf("%s: eq2 overestimates (%v)", r.Variant.Name(), r.Eq2RelError())
		}
		if -r.Eq2RelError() > 0.2 && r.RefinedRelError() > -r.Eq2RelError() {
			t.Errorf("%s: refinement did not improve (%v → %v)",
				r.Variant.Name(), -r.Eq2RelError(), r.RefinedRelError())
		}
	}
}

func TestStudyErrors(t *testing.T) {
	noRef := []Variant{{Shape: Shape{Layout: AoS, Staging: CacheOnly, TargetTile: 2}, Unroll: 1, VectorWidth: 1}}
	if _, err := RunStudy(StudyConfig{Variants: noRef, N: 64, LeafSize: 16}); err == nil {
		t.Error("population without reference accepted")
	}
	if _, err := RunStudy(StudyConfig{Variants: []Variant{}, N: 64}); err != nil {
		// nil Variants defaults; empty slice must error — verify it does.
		t.Log("empty population correctly rejected:", err)
	} else {
		t.Error("empty variant slice accepted")
	}
	// Every knob is checked with one error text, including the two the
	// replay never reads.
	for _, bad := range []Variant{
		{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 0}, Unroll: 1, VectorWidth: 1},
		{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}, Unroll: 0, VectorWidth: 1},
		{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: -1},
	} {
		_, err := RunStudy(StudyConfig{Variants: []Variant{bad}, N: 64, LeafSize: 16})
		want := "fmm: variant " + bad.Name() + " has non-positive parameters"
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", bad.Name(), err, want)
		}
	}
}

// TestStudyReplaysEachShapeOnce pins the study's replay count: the 392
// generated variants have 42 traffic shapes, and the
// "fmm.cache_replay" span counts one replay per shape. Variants that
// share a shape get equal Traffic, each in its own copy.
func TestStudyReplaysEachShapeOnce(t *testing.T) {
	tr := trace.New(trace.Config{})
	res, err := RunStudyCtx(trace.WithTracer(context.Background(), tr), StudyConfig{Seed: 3, N: 256, LeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	shapes := 0
	for _, ev := range tr.Events() {
		if ev.Name != "fmm.cache_replay" {
			continue
		}
		for _, tag := range ev.Tags {
			if tag.Key == "shapes" {
				shapes, _ = tag.Val.(int)
			}
		}
	}
	if shapes != 42 {
		t.Errorf("study replayed %d shapes, want 42", shapes)
	}
	a, b := &res.Results[0], &res.Results[1]
	if a.Variant.Shape != b.Variant.Shape {
		t.Fatalf("%s and %s do not share a shape", a.Variant.Name(), b.Variant.Name())
	}
	if !reflect.DeepEqual(a.Traffic, b.Traffic) {
		t.Fatalf("one shape, two traffics:\n%+v\n%+v", a.Traffic, b.Traffic)
	}
	a.Traffic.Levels[0].Bytes++
	if b.Traffic.Levels[0].Bytes == a.Traffic.Levels[0].Bytes {
		t.Error("variants of one shape share a Levels slice")
	}
}

func TestStudyDeterminism(t *testing.T) {
	subset := []Variant{
		{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}, Unroll: 1, VectorWidth: 1},
		{Shape: Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 8}, Unroll: 1, VectorWidth: 1},
	}
	a, err := RunStudy(StudyConfig{Seed: 7, N: 512, LeafSize: 64, Variants: subset})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(StudyConfig{Seed: 7, N: 512, LeafSize: 64, Variants: subset})
	if err != nil {
		t.Fatal(err)
	}
	if a.FittedCachePJ != b.FittedCachePJ || a.MedianRefinedErr != b.MedianRefinedErr {
		t.Error("study must be deterministic per seed")
	}
}

func TestSortByEq2Error(t *testing.T) {
	rs := []VariantResult{
		{MeasuredEnergy: 100, Eq2Estimate: 90},
		{MeasuredEnergy: 100, Eq2Estimate: 50},
		{MeasuredEnergy: 100, Eq2Estimate: 99},
	}
	SortByEq2Error(rs)
	if rs[0].Eq2Estimate != 50 || rs[2].Eq2Estimate != 99 {
		t.Errorf("sort order wrong: %+v", rs)
	}
}

func BenchmarkStudyFullPopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunStudy(StudyConfig{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateTraffic times the study's replay stage alone: one
// SimulateTraffic call for each of the 14 cache-only shapes, at the
// study's default size (4,096 points, leaf 256).
func BenchmarkSimulateTraffic(b *testing.B) {
	tree, err := Build(UniformPoints(4096, 42), 256, studyMaxDepth)
	if err != nil {
		b.Fatal(err)
	}
	u := tree.BuildULists()
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		b.Fatal(err)
	}
	var shapes []Shape
	for _, sh := range distinctShapes(GenerateVariants()) {
		if sh.IsCacheOnly() {
			shapes = append(shapes, sh)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sh := range shapes {
			if _, err := tree.SimulateTraffic(u, sh, h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestBestVariantSelection(t *testing.T) {
	var vars []Variant
	for _, v := range GenerateVariants() {
		if v.VectorWidth == 1 && v.Unroll <= 2 {
			vars = append(vars, v)
		}
	}
	res, err := RunStudy(StudyConfig{Seed: 13, N: 1024, LeafSize: 128, Variants: vars})
	if err != nil {
		t.Fatal(err)
	}
	fastest := res.Results[0]
	for _, v := range res.Results[1:] {
		if v.Time < fastest.Time {
			fastest = v
		}
	}
	// The FMM-U phase is compute-bound, so speed and energy rankings
	// largely agree: the fastest variant should be register-blocked.
	if fastest.Variant.TargetTile < 8 {
		t.Errorf("fastest variant %s has little register blocking", fastest.Variant.Name())
	}
}

func TestStudyOnClusteredPoints(t *testing.T) {
	// The adaptive-tree path: clustered points give variable leaf
	// populations, which the traffic replay and the study must handle.
	pts := ClusteredPoints(2048, 3, 17)
	tr, err := Build(pts, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depth must actually vary (otherwise this test is vacuous).
	minD, maxD := 99, 0
	for _, li := range tr.Leaves {
		d := tr.Nodes[li].Depth
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD == minD {
		t.Skip("clustering did not produce adaptive depth at this seed")
	}
	u := tr.BuildULists()
	h, err := cache.FromMachine(machine.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	ref := Shape{Layout: SoA, Staging: CacheOnly, TargetTile: 1}
	tf, err := tr.SimulateTraffic(u, ref, h)
	if err != nil {
		t.Fatal(err)
	}
	if tf.DRAMReadBytes <= 0 || tf.CacheBytes() <= 0 {
		t.Errorf("clustered traffic empty: %+v", tf)
	}
	// The kernel itself runs clean on the adaptive tree.
	pairs, err := tr.InteractF32(u)
	if err != nil {
		t.Fatal(err)
	}
	if pairs <= 0 {
		t.Error("no interactions on clustered tree")
	}
}
