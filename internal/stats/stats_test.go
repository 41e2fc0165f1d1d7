package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %v, %v; want 5", m, err)
	}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of squared deviations is 32; unbiased variance 32/7.
	if math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	sd, _ := StdDev(xs)
	if math.Abs(sd-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", sd)
	}
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Error("Mean(nil) should fail")
	}
	if _, err := Variance([]float64{1}); err != ErrEmpty {
		t.Error("Variance of single sample should fail")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("Percentile(nil) should fail")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
		{40, 20 + 0.6*15}, // rank 1.6 between 20 and 35
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile should fail")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error(">100 percentile should fail")
	}
	// Input must not be reordered.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile modified its input")
	}
	one, _ := Percentile([]float64{7}, 90)
	if one != 7 {
		t.Errorf("single-element percentile = %v", one)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := float64(p) / 255 * 100
		got, err := Percentile(xs, pp)
		if err != nil {
			return false
		}
		return got >= slices.Min(xs) && got <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(11,10) = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %v", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestGaussianMoments(t *testing.T) {
	r := NewRand(7)
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gaussian(10, 2)
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	if math.Abs(m-10) > 0.05 {
		t.Errorf("gaussian mean = %v", m)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("gaussian sd = %v", sd)
	}
}

func TestRelNoiseClamped(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		f := r.RelNoise(1.0) // huge sd to exercise clamping
		if f < 0.05 || f > 1.95 {
			t.Fatalf("RelNoise escaped clamp: %v", f)
		}
	}
	// Small sd noise should center on 1.
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.RelNoise(0.01)
	}
	if math.Abs(sum/float64(n)-1) > 0.005 {
		t.Errorf("RelNoise mean = %v", sum/float64(n))
	}
}

func TestSplitMix64KnownVectors(t *testing.T) {
	// Reference outputs of the SplitMix64 generator (state 0, then the
	// successive states), from the Vigna reference implementation.
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitMix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if got := SplitMix64(0x9e3779b97f4a7c15); got != 0x6e789e6aa1b965f4 {
		t.Errorf("SplitMix64(1·gamma) = %#x, want 0x6e789e6aa1b965f4", got)
	}
	// Bijective finalizer: nearby inputs must not collide.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	// Deterministic.
	if DeriveSeed(42, 1, 2, 3) != DeriveSeed(42, 1, 2, 3) {
		t.Error("DeriveSeed not deterministic")
	}
	// Sensitive to the base seed, every label, label order, and label
	// count — the properties the sweep's task identity scheme relies on.
	base := DeriveSeed(42, 1, 2, 3)
	for name, other := range map[string]int64{
		"different base":  DeriveSeed(43, 1, 2, 3),
		"different label": DeriveSeed(42, 1, 2, 4),
		"swapped order":   DeriveSeed(42, 2, 1, 3),
		"shorter":         DeriveSeed(42, 1, 2),
		"longer":          DeriveSeed(42, 1, 2, 3, 0),
		"no labels":       DeriveSeed(42),
	} {
		if other == base {
			t.Errorf("%s: seed collides with base derivation", name)
		}
	}
	// Derivation must not return the base itself (streams must separate).
	if DeriveSeed(42) == 42 {
		t.Error("DeriveSeed(base) == base")
	}
}

func TestDeriveSeedNoPairwiseCollisions(t *testing.T) {
	// A realistic campaign grid: 2 streams × 2 precisions × 16 grid
	// points × 128 reps. Any collision would silently correlate two
	// measurements.
	seen := map[int64][]uint64{}
	for stream := uint64(0); stream < 2; stream++ {
		for prec := uint64(0); prec < 2; prec++ {
			for gi := uint64(0); gi < 16; gi++ {
				for rep := uint64(0); rep < 128; rep++ {
					s := DeriveSeed(42, stream, prec, gi, rep)
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision: (%d,%d,%d,%d) vs %v", stream, prec, gi, rep, prev)
					}
					seen[s] = []uint64{stream, prec, gi, rep}
				}
			}
		}
	}
}

func TestDeriveRandStreams(t *testing.T) {
	a := DeriveRand(7, 1, 2)
	b := DeriveRand(7, 1, 2)
	c := DeriveRand(7, 2, 1)
	same, diff := true, true
	for i := 0; i < 32; i++ {
		va, vb, vc := a.Float64(), b.Float64(), c.Float64()
		same = same && va == vb
		diff = diff && va != vc
	}
	if !same {
		t.Error("equal labels must give identical streams")
	}
	if !diff {
		t.Error("different labels must give unrelated streams")
	}
}

func TestBorrowedStreamMatchesDerived(t *testing.T) {
	// The pooled source must replay exactly the stream a fresh
	// DeriveRand yields for the same labels.
	a := DeriveRand(99, 1, 2, 3)
	b := BorrowDerived(99, 1, 2, 3)
	defer b.Release()
	for i := 0; i < 1000; i++ {
		if av, bv := a.NormFloat64(), b.NormFloat64(); av != bv {
			t.Fatalf("draw %d: borrowed stream %v != derived stream %v", i, bv, av)
		}
	}
}

func TestExtendStateMatchesDeriveSeed(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		want := DeriveSeed(7, 11, 5, i)
		state := DeriveState(7, 11)
		state = ExtendState(state, 5)
		if got := int64(ExtendState(state, i)); got != want {
			t.Fatalf("fold-state seed %d != DeriveSeed %d", got, want)
		}
	}
}

func TestHashLabelFNVVectors(t *testing.T) {
	// FNV-1a 64 reference vectors.
	if got := HashLabel(""); got != 14695981039346656037 {
		t.Errorf("HashLabel(\"\") = %d", got)
	}
	if got := HashLabel("a"); got != 0xaf63dc4c8601ec8c {
		t.Errorf("HashLabel(\"a\") = %#x", got)
	}
	if HashLabel("gtx580") == HashLabel("i7-950") {
		t.Error("distinct machine keys hash equal")
	}
}

func TestExpSampler(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		x := r.Exp(4)
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("Exp sample %d invalid: %v", i, x)
		}
		sum += x
	}
	if mean := sum / n; mean < 0.23 || mean > 0.27 {
		t.Errorf("Exp(4) mean = %v, want ~0.25", mean)
	}
	// Same seed, same stream.
	a, b := NewRand(3), NewRand(3)
	for i := 0; i < 16; i++ {
		if a.Exp(2) != b.Exp(2) {
			t.Fatal("Exp streams diverge for equal seeds")
		}
	}
}

func TestZipfSampler(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := NewZipf(4, math.NaN()); err == nil {
		t.Error("NaN exponent accepted")
	}
	if _, err := NewZipf(4, -1); err == nil {
		t.Error("negative exponent accepted")
	}

	// s = 0 is uniform: every rank roughly equally likely.
	z, err := NewZipf(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	r := NewRand(5)
	const n = 40000
	for i := 0; i < n; i++ {
		rank := z.Sample(r)
		if rank < 0 || rank >= 8 {
			t.Fatalf("rank %d out of range", rank)
		}
		counts[rank]++
	}
	for rank, c := range counts {
		if c < n/8-n/40 || c > n/8+n/40 {
			t.Errorf("uniform zipf rank %d count %d, want ~%d", rank, c, n/8)
		}
	}

	// Skewed: rank popularity must be monotone non-increasing, with rank
	// 0 clearly dominant at s = 1.2.
	z, err = NewZipf(64, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	counts = make([]int, 64)
	r = NewRand(6)
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[4] || counts[4] < counts[32] {
		t.Errorf("zipf counts not skewed: %v", counts[:8])
	}
	if float64(counts[0])/n < 0.2 {
		t.Errorf("rank 0 share %v too small for s=1.2", float64(counts[0])/n)
	}

	// Determinism: equal seeds give equal rank streams.
	ra, rb := NewRand(9), NewRand(9)
	for i := 0; i < 64; i++ {
		if z.Sample(ra) != z.Sample(rb) {
			t.Fatal("Zipf streams diverge for equal seeds")
		}
	}
}

// bisect is the oracle for Zipf.rank: the binary search of the CDF that
// Sample ran before the guide table, returning the smallest i with
// cum[i] >= u.
func (z *Zipf) bisect(u float64) int {
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkRankAtEdges compares the guide table with the oracle at u and
// at every CDF edge next to u's answer: cum[i] itself and the float on
// either side of it, for the answer and its neighbours. Draws lie in
// [0, 1), so probes above 1 are skipped.
func checkRankAtEdges(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	probe := func(u float64) {
		if u < 0 || u > 1 {
			return
		}
		if got, want := z.rank(u), z.bisect(u); got != want {
			t.Fatalf("n=%d: rank(%v) = %d, binary search %d", z.N(), u, got, want)
		}
	}
	probe(u)
	i := z.bisect(u)
	for k := max(i-1, 0); k <= min(i+1, z.N()-1); k++ {
		c := z.cum[k]
		probe(math.Nextafter(c, math.Inf(-1)))
		probe(c)
		probe(math.Nextafter(c, math.Inf(1)))
	}
}

// TestZipfGuideMatchesBisection probes every CDF edge of five samplers,
// from one rank to cluster_1m's 50k, and a 100k-draw stream of each:
// the guide table must return the binary search's rank every time, so
// that no Zipf stream moved when it replaced the search.
func TestZipfGuideMatchesBisection(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{1, 1.1}, {500, 1.1}, {50000, 1.1}, {4096, 0}, {4096, 2.5}} {
		z, err := NewZipf(c.n, c.s)
		if err != nil {
			t.Fatal(err)
		}
		checkRankAtEdges(t, z, 0)
		for _, edge := range z.cum {
			checkRankAtEdges(t, z, edge)
		}
		a, b := NewRand(int64(c.n)), NewRand(int64(c.n))
		for k := 0; k < 100000; k++ {
			if got, want := z.Sample(a), z.bisect(b.Float64()); got != want {
				t.Fatalf("n=%d s=%v: draw %d sampled rank %d, binary search %d", c.n, c.s, k, got, want)
			}
		}
	}
}

// TestZipfRankStepsBack covers the one case where the guide entry
// starts past the answer: u·n rounds up to an integer j while u < j/n,
// so the bucket's guide entry is the first rank with cum >= j/n > u. A
// CDF with cum[0] = u puts the answer at rank 0 and the guide at 1.
func TestZipfRankStepsBack(t *testing.T) {
	cases := 0
	for n := 2; n <= 64; n++ {
		for j := 1; j < n; j++ {
			u := math.Nextafter(float64(j)/float64(n), 0)
			if int(u*float64(n)) != j {
				continue
			}
			cum := make([]float64, n)
			for i := range cum {
				cum[i] = 1
			}
			cum[0] = u
			z := indexCDF(cum)
			if z.guide[j] == 0 {
				t.Fatalf("n=%d: guide[%d] starts at the answer; the case is not exercised", n, j)
			}
			if got := z.rank(u); got != 0 || z.bisect(u) != 0 {
				t.Fatalf("n=%d: rank(%v) = %d, binary search %d, want 0", n, u, got, z.bisect(u))
			}
			cases++
		}
	}
	if cases == 0 {
		t.Fatal("no universe up to 64 ranks has a draw that rounds up into the next bucket")
	}
}

// FuzzZipfSample is the differential check behind the guide table: for
// any universe up to 2^16 ranks, any exponent in [0, 8] and any 53-bit
// draw, Zipf.rank returns the binary search's rank, at the draw and at
// the CDF edges around its answer. Large exponents make the tail of
// cum round to runs of equal values, where the answer is the first
// rank of a run.
func FuzzZipfSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint32, s float64, bits uint64) {
		if s = math.Abs(s); s > 8 {
			s = math.Mod(s, 8)
		}
		z, err := NewZipf(int(n%(1<<16))+1, s)
		if err != nil {
			return // NaN or infinite s
		}
		checkRankAtEdges(t, z, float64(bits>>11)/(1<<53))
	})
}
