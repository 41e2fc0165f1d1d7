// Package algs characterises canonical algorithms the way §II-A of the
// paper does: by their work W(n), their slow-memory traffic Q(n; Z)
// as a function of fast-memory capacity Z, and hence their intensity
// I = W/Q. The package encodes the two §II-A exemplars — n×n matrix
// multiply, whose intensity cannot exceed O(√Z) (Hong & Kung's red-blue
// pebble bound), and array reduction, whose intensity is O(1)
// independent of Z — plus the other kernels the examples and capacity-
// planning experiment use.
//
// All traffic models are the standard I/O-complexity forms for a
// two-level memory with capacity Z words; constants follow the common
// textbook analyses and are documented per algorithm. Word granularity
// is abstracted: W is in flops, Q in words; ToKernel converts to bytes
// for a chosen precision.
package algs

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/machine"
)

// Algorithm models one algorithm's work and traffic.
type Algorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Work returns W(n) in flops.
	Work(n float64) float64
	// Traffic returns Q(n, z) in words, for fast-memory capacity z words.
	Traffic(n, z float64) float64
}

// Intensity returns I = W/Q in flops per word.
func Intensity(a Algorithm, n, z float64) float64 {
	q := a.Traffic(n, z)
	if q <= 0 {
		return math.Inf(1)
	}
	return a.Work(n) / q
}

// ToKernel converts an algorithm instance to the model's (W, Q-bytes)
// kernel at the given precision.
func ToKernel(a Algorithm, n, z float64, prec machine.Precision) core.Kernel {
	return core.Kernel{
		W: a.Work(n),
		Q: a.Traffic(n, z) * float64(prec.WordSize()),
	}
}

// MatMul is blocked n×n dense matrix multiplication. W = 2n³.
// With optimal √(Z/3)-blocking, Q = Θ(n³/√Z): each block pair is read
// once, giving Q ≈ 2√3·n³/√Z + 2n² (the compulsory term). Intensity is
// Θ(√Z) — the Hong–Kung bound, so doubling Z buys only a √2 intensity
// improvement (§II-A).
type MatMul struct{}

// Name implements Algorithm.
func (MatMul) Name() string { return "matmul" }

// Work implements Algorithm.
func (MatMul) Work(n float64) float64 { return 2 * n * n * n }

// Traffic implements Algorithm.
func (MatMul) Traffic(n, z float64) float64 {
	if z <= 3 {
		// Degenerate fast memory: every operand access misses.
		return 4 * n * n * n
	}
	b := math.Sqrt(z / 3) // block edge so three b×b blocks fit
	if b > n {
		b = n
	}
	return 2*n*n*n/b + 2*n*n
}

// Reduction sums an n-element array. W = n−1 flops, Q = n words, and Z
// plays no role: intensity is O(1) regardless of cache size (§II-A).
type Reduction struct{}

// Name implements Algorithm.
func (Reduction) Name() string { return "reduction" }

// Work implements Algorithm.
func (Reduction) Work(n float64) float64 {
	if n < 1 {
		return 0
	}
	return n - 1
}

// Traffic implements Algorithm.
func (Reduction) Traffic(n, _ float64) float64 { return n }

// Stencil is a 3-D 7-point stencil sweep over an n³ grid, one time
// step: 8 flops per point; with ideal plane-caching Q = 2n³ words
// (read + write each point once) when three planes (3n²) fit in Z,
// degrading to 8n³ when they do not.
type Stencil struct{}

// Name implements Algorithm.
func (Stencil) Name() string { return "stencil7" }

// Work implements Algorithm.
func (Stencil) Work(n float64) float64 { return 8 * n * n * n }

// Traffic implements Algorithm.
func (Stencil) Traffic(n, z float64) float64 {
	if z >= 3*n*n {
		return 2 * n * n * n
	}
	return 8 * n * n * n
}

// FFT is an n-point complex FFT: W = 5n·log₂n flops. The Hong–Kung
// lower bound gives Q = Θ(n·log n / log Z); the cache-oblivious
// algorithm attains it: Q ≈ 4n·log₂n/log₂Z + 2n.
type FFT struct{}

// Name implements Algorithm.
func (FFT) Name() string { return "fft" }

// Work implements Algorithm.
func (FFT) Work(n float64) float64 {
	if n < 2 {
		return 0
	}
	return 5 * n * math.Log2(n)
}

// Traffic implements Algorithm.
func (FFT) Traffic(n, z float64) float64 {
	if n < 2 {
		return 2 * n
	}
	lz := math.Log2(math.Max(z, 4))
	return 4*n*math.Log2(n)/lz + 2*n
}

// SpMV is sparse matrix-vector multiply with nnz ≈ k·n non-zeros
// (default k = 8): W = 2·k·n flops, Q ≈ (k·n)·(1 index + 1 value) +
// vector traffic; intensity is O(1), slightly helped by Z caching the
// source vector.
type SpMV struct {
	// NonzerosPerRow is k (default 8 when zero).
	NonzerosPerRow float64
}

// Name implements Algorithm.
func (s SpMV) Name() string { return "spmv" }

func (s SpMV) k() float64 {
	if s.NonzerosPerRow <= 0 {
		return 8
	}
	return s.NonzerosPerRow
}

// Work implements Algorithm.
func (s SpMV) Work(n float64) float64 { return 2 * s.k() * n }

// Traffic implements Algorithm.
func (s SpMV) Traffic(n, z float64) float64 {
	matrix := 2 * s.k() * n // values + column indices
	vector := 2 * n         // y read+write
	// Source vector x: cached when it fits, else re-fetched per nonzero
	// with probability ~ (1 − z/n).
	var x float64
	if z >= n {
		x = n
	} else {
		x = n + (s.k()-1)*n*(1-z/n)
	}
	return matrix + vector + x
}

// FMMU is the paper's §V-C U-list phase with q points per leaf:
// W = 11·27·q per point-pair structure, i.e. W(n) = 11·n·27·q flops and
// Q(n) = 4·n words of particle data (compulsory), making I = O(q).
type FMMU struct {
	// PointsPerLeaf is q (default 256 when zero).
	PointsPerLeaf float64
}

// Name implements Algorithm.
func (f FMMU) Name() string { return "fmm-u" }

func (f FMMU) q() float64 {
	if f.PointsPerLeaf <= 0 {
		return 256
	}
	return f.PointsPerLeaf
}

// Work implements Algorithm.
func (f FMMU) Work(n float64) float64 { return 11 * 27 * f.q() * n }

// Traffic implements Algorithm.
func (f FMMU) Traffic(n, _ float64) float64 { return 4 * n }

// All returns the built-in algorithm models.
func All() []Algorithm {
	return []Algorithm{MatMul{}, Reduction{}, Stencil{}, FFT{}, SpMV{}, FMMU{}}
}

// IntensityGrowth reports how an algorithm's intensity responds to
// doubling the fast memory: the ratio I(n, 2z)/I(n, z). For matmul this
// tends to √2 (the §II-A claim); for a reduction it is exactly 1.
func IntensityGrowth(a Algorithm, n, z float64) (float64, error) {
	if n <= 0 || z <= 0 {
		return 0, errors.New("algs: n and z must be positive")
	}
	i1 := Intensity(a, n, z)
	i2 := Intensity(a, n, 2*z)
	if math.IsInf(i1, 1) || i1 == 0 {
		return 0, errors.New("algs: intensity degenerate at this size")
	}
	return i2 / i1, nil
}

// Recommend evaluates an algorithm instance on a machine at a precision
// and reports the model's verdict: intensity, boundness in time and
// energy, predicted time, energy, and power per unit of work.
type Verdict struct {
	// Algorithm names the evaluated algorithm.
	Algorithm string
	// Intensity is W/Q in flops per byte.
	Intensity float64
	// TimeBound classifies the time bottleneck.
	TimeBound core.BoundState
	// EnergyBound classifies the energy bottleneck.
	EnergyBound core.BoundState
	// Time is the model's eq. (3) cost in seconds.
	Time float64
	// Energy is the eq. (4) cost in Joules.
	Energy float64
	// Power is the eq. (7) average power in Watts.
	Power float64
}

// Evaluate produces the model verdict for algorithm a at size n on
// machine m (fast memory Z and word size taken from m and prec).
func Evaluate(a Algorithm, n float64, m *machine.Machine, prec machine.Precision) (Verdict, error) {
	if n <= 0 {
		return Verdict{}, errors.New("algs: n must be positive")
	}
	zWords := float64(m.FastMemory) / float64(prec.WordSize())
	k := ToKernel(a, n, zWords, prec)
	p := core.FromMachine(m, prec)
	return Verdict{
		Algorithm:   a.Name(),
		Intensity:   k.Intensity(),
		TimeBound:   p.TimeBound(k),
		EnergyBound: p.EnergyBound(k),
		Time:        p.Time(k),
		Energy:      p.Energy(k),
		Power:       p.AveragePower(k),
	}, nil
}
