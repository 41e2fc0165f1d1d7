// Package regress implements ordinary least squares linear regression
// via Householder QR factorization, with the inference statistics the
// paper reports for its energy-coefficient fit (eq. 9): R² near unity
// and p-values below 1e-14.
//
// The implementation is self-contained: the QR solver, the covariance
// computation, and the Student-t tail probabilities (via the regularized
// incomplete beta function) use only the standard library.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Result holds a fitted linear model y ≈ X·β.
type Result struct {
	// Coef are the fitted coefficients β, one per design-matrix column.
	Coef []float64
	// StdErr are the coefficient standard errors.
	StdErr []float64
	// TStat are the t statistics Coef[i]/StdErr[i].
	TStat []float64
	// PValue are two-sided p-values for the null hypothesis β_i = 0.
	PValue []float64
	// R2 is the coefficient of determination.
	R2 float64
	// AdjR2 is R² adjusted for the number of predictors.
	AdjR2 float64
	// RSS is the residual sum of squares.
	RSS float64
	// Sigma2 is the residual variance estimate RSS/(n-p).
	Sigma2 float64
	// DOF is the residual degrees of freedom n-p.
	DOF int
	// Residuals are y - X·β.
	Residuals []float64
}

// Fit performs an ordinary least squares fit of y on the rows of X.
// Each row of X is one observation; all rows must have the same number
// of columns p, and len(X) == len(y) must exceed p. An intercept, if
// wanted, must be supplied as a column of ones.
func Fit(X [][]float64, y []float64) (*Result, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("regress: empty design matrix or length mismatch")
	}
	p := len(X[0])
	if p == 0 {
		return nil, errors.New("regress: no predictors")
	}
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("regress: row %d has %d columns, want %d", i, len(row), p)
		}
	}
	if n <= p {
		return nil, fmt.Errorf("regress: need more than %d observations for %d predictors, have %d", p, p, n)
	}

	// Copy X into a working matrix A (n x p) and y into b.
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), X[i]...)
	}
	b := append([]float64(nil), y...)

	// Original column norms set the scale for rank-deficiency detection:
	// after elimination, a column whose remaining norm is a roundoff-sized
	// fraction of its original norm is linearly dependent on its
	// predecessors.
	colNorm := make([]float64, p)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			colNorm[j] = math.Hypot(colNorm[j], a[i][j])
		}
	}

	// Householder QR: reduce A to upper-triangular R in place, applying
	// the same reflections to b. After the loop, the least-squares
	// solution solves R β = b[:p].
	for k := 0; k < p; k++ {
		// Norm of column k below the diagonal.
		norm := 0.0
		for i := k; i < n; i++ {
			norm = math.Hypot(norm, a[i][k])
		}
		if norm <= 1e-12*colNorm[k] {
			return nil, fmt.Errorf("regress: design matrix is rank deficient at column %d", k)
		}
		// Choose the sign that avoids cancellation: norm takes the sign
		// of the diagonal element, so v = x/norm + e_k has v_k >= 1.
		if a[k][k] < 0 {
			norm = -norm
		}
		// Householder vector v stored in a[k:][k]; v_k normalised to 1.
		for i := k; i < n; i++ {
			a[i][k] /= norm
		}
		a[k][k] += 1
		// Apply reflection to remaining columns.
		for j := k + 1; j < p; j++ {
			s := 0.0
			for i := k; i < n; i++ {
				s += a[i][k] * a[i][j]
			}
			s = -s / a[k][k]
			for i := k; i < n; i++ {
				a[i][j] += s * a[i][k]
			}
		}
		// Apply reflection to b.
		s := 0.0
		for i := k; i < n; i++ {
			s += a[i][k] * b[i]
		}
		s = -s / a[k][k]
		for i := k; i < n; i++ {
			b[i] += s * a[i][k]
		}
		a[k][k] = -norm // diagonal of R (LINPACK convention R_kk = -norm)
	}

	// Back substitution: R β = b[:p]. R's diagonal sits in a[k][k]
	// (negated norm convention), upper triangle in a[k][j], j>k.
	beta := make([]float64, p)
	for k := p - 1; k >= 0; k-- {
		s := b[k]
		for j := k + 1; j < p; j++ {
			s -= a[k][j] * beta[j]
		}
		if a[k][k] == 0 {
			return nil, errors.New("regress: singular R in back substitution")
		}
		beta[k] = s / a[k][k]
	}

	// Residuals and goodness of fit against the original data.
	res := &Result{Coef: beta, DOF: n - p}
	res.Residuals = make([]float64, n)
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	tss := 0.0
	for i := 0; i < n; i++ {
		pred := 0.0
		for j := 0; j < p; j++ {
			pred += X[i][j] * beta[j]
		}
		r := y[i] - pred
		res.Residuals[i] = r
		res.RSS += r * r
		d := y[i] - meanY
		tss += d * d
	}
	if tss > 0 {
		res.R2 = 1 - res.RSS/tss
		res.AdjR2 = 1 - (res.RSS/float64(n-p))/(tss/float64(n-1))
	} else {
		res.R2 = 1
		res.AdjR2 = 1
	}
	res.Sigma2 = res.RSS / float64(res.DOF)

	// Coefficient covariance: σ² (R'R)^{-1} = σ² R^{-1} R^{-T}.
	// Compute Rinv (p x p upper triangular inverse).
	rinv := make([][]float64, p)
	for i := range rinv {
		rinv[i] = make([]float64, p)
	}
	for j := 0; j < p; j++ {
		rinv[j][j] = 1 / a[j][j]
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += a[i][k] * rinv[k][j]
			}
			rinv[i][j] = -s / a[i][i]
		}
	}
	res.StdErr = make([]float64, p)
	res.TStat = make([]float64, p)
	res.PValue = make([]float64, p)
	for i := 0; i < p; i++ {
		v := 0.0
		for j := i; j < p; j++ {
			v += rinv[i][j] * rinv[i][j]
		}
		se := math.Sqrt(res.Sigma2 * v)
		res.StdErr[i] = se
		if se > 0 {
			res.TStat[i] = beta[i] / se
			res.PValue[i] = TwoSidedTPValue(res.TStat[i], res.DOF)
		} else {
			res.TStat[i] = math.Inf(sign(beta[i]))
			res.PValue[i] = 0
		}
	}
	return res, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// TwoSidedTPValue returns the two-sided p-value of a Student-t statistic
// with dof degrees of freedom: P(|T| >= |t|).
func TwoSidedTPValue(t float64, dof int) float64 {
	if dof <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 0) {
		return 0
	}
	// P(|T| >= t) = I_{ν/(ν+t²)}(ν/2, 1/2) — regularized incomplete beta.
	nu := float64(dof)
	x := nu / (nu + t*t)
	return RegIncBeta(nu/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued fraction expansion (Numerical Recipes style,
// modified Lentz algorithm).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function via the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
