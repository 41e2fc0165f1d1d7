package regress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestExactLineFit(t *testing.T) {
	// y = 3 + 2x, noiseless.
	var X [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		x := float64(i)
		X = append(X, []float64{1, x})
		y = append(y, 3+2*x)
	}
	r, err := Fit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coef[0]-3) > 1e-9 || math.Abs(r.Coef[1]-2) > 1e-9 {
		t.Errorf("coefs = %v, want [3 2]", r.Coef)
	}
	if r.R2 < 1-1e-12 {
		t.Errorf("R2 = %v, want 1", r.R2)
	}
	if r.RSS > 1e-18 {
		t.Errorf("RSS = %v, want ~0", r.RSS)
	}
	if r.DOF != 18 {
		t.Errorf("DOF = %d, want 18", r.DOF)
	}
}

func TestMultivariateRecovery(t *testing.T) {
	// The shape of the paper's eq. (9): E/W = es + emem*(Q/W) + p0*(T/W) + ded*R.
	truth := []float64{99.7, 513, 122, 112.3}
	rng := stats.NewRand(11)
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		qw := rng.Float64() * 4         // bytes per flop
		tw := 1e-3 + rng.Float64()*5e-3 // time per flop (arbitrary scale)
		rr := float64(i % 2)            // precision indicator
		row := []float64{1, qw, tw, rr}
		X = append(X, row)
		v := truth[0] + truth[1]*qw + truth[2]*tw + truth[3]*rr
		y = append(y, v*rng.RelNoise(0.01))
	}
	r, err := Fit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range truth {
		if i == 2 {
			// The T/W regressor has tiny magnitude, so its coefficient is
			// weakly identified under relative noise; allow a loose check.
			continue
		}
		if stats.RelErr(r.Coef[i], want) > 0.05 {
			t.Errorf("coef[%d] = %v, want %v", i, r.Coef[i], want)
		}
	}
	if r.R2 < 0.99 {
		t.Errorf("R2 = %v, want near 1", r.R2)
	}
	// All strong coefficients should be significant.
	for _, i := range []int{0, 1, 3} {
		if r.PValue[i] > 1e-10 {
			t.Errorf("p-value[%d] = %v, want tiny", i, r.PValue[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Fit([][]float64{{}, {}}, []float64{1, 2}); err == nil {
		t.Error("no predictors should fail")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Fit([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err == nil {
		t.Error("n <= p should fail")
	}
	// Rank-deficient: column 2 = 2 * column 1.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	if _, err := Fit(X, []float64{1, 2, 3, 4}); err == nil {
		t.Error("rank-deficient fit should fail")
	}
}

func TestResidualsOrthogonalToDesign(t *testing.T) {
	// OLS invariant: residuals are orthogonal to every design column.
	rng := stats.NewRand(5)
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		row := []float64{1, rng.Float64(), rng.Float64() * 10}
		X = append(X, row)
		y = append(y, 2+3*row[1]-0.5*row[2]+rng.Gaussian(0, 0.3))
	}
	r, err := Fit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		dot := 0.0
		for i := range X {
			dot += X[i][j] * r.Residuals[i]
		}
		if math.Abs(dot) > 1e-8 {
			t.Errorf("residuals not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{0.5, 0.5, 0.5, 0.5},   // symmetric arcsine distribution median
		{1, 1, 0.3, 0.3},       // uniform: I_x(1,1) = x
		{2, 2, 0.5, 0.5},       // symmetric beta median
		{2, 3, 1, 1},           // boundary
		{2, 3, 0, 0},           // boundary
		{5, 2, 0.8, 0.6553600}, // known value: I_0.8(5,2)
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
	if !math.IsNaN(RegIncBeta(-1, 1, 0.5)) {
		t.Error("negative shape should be NaN")
	}
}

func TestRegIncBetaComplementProperty(t *testing.T) {
	f := func(ra, rb, rx float64) bool {
		a := math.Abs(math.Mod(ra, 10)) + 0.1
		b := math.Abs(math.Mod(rb, 10)) + 0.1
		x := math.Abs(math.Mod(rx, 1))
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return math.Abs(lhs-rhs) < 1e-9 && lhs >= -1e-12 && lhs <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoSidedTPValue(t *testing.T) {
	// Known t-distribution tails.
	cases := []struct {
		t    float64
		dof  int
		want float64
		tol  float64
	}{
		{0, 10, 1, 1e-12},
		{2.228, 10, 0.05, 1e-3}, // 97.5th percentile of t(10)
		{1.96, 1000, 0.05, 2e-3},
		{12.706, 1, 0.05, 1e-3},
	}
	for _, c := range cases {
		got := TwoSidedTPValue(c.t, c.dof)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("p(t=%v, dof=%d) = %v, want %v", c.t, c.dof, got, c.want)
		}
	}
	if got := TwoSidedTPValue(math.Inf(1), 5); got != 0 {
		t.Errorf("p(inf) = %v", got)
	}
	if !math.IsNaN(TwoSidedTPValue(1, 0)) {
		t.Error("dof=0 should be NaN")
	}
	// Symmetry in t.
	if TwoSidedTPValue(2.5, 7) != TwoSidedTPValue(-2.5, 7) {
		t.Error("p-value must be symmetric in t")
	}
}

func TestR2Boundaries(t *testing.T) {
	// Constant response: TSS = 0 -> define R2 = 1.
	X := [][]float64{{1}, {1}, {1}, {1}}
	y := []float64{5, 5, 5, 5}
	r, err := Fit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.R2 != 1 {
		t.Errorf("R2 for perfect constant fit = %v", r.R2)
	}
}

func BenchmarkFitEq9Shape(b *testing.B) {
	rng := stats.NewRand(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 2200; i++ { // ~ the paper's 100 reps x 22 intensities
		row := []float64{1, rng.Float64() * 4, rng.Float64() * 1e-2, float64(i % 2)}
		X = append(X, row)
		y = append(y, 100+500*row[1]+120*row[2]+110*row[3]+rng.Gaussian(0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
