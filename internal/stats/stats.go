// Package stats provides the small statistical toolkit the reproduction
// needs: descriptive statistics, percentiles, error metrics, and
// deterministic noise generation for the simulated measurement
// apparatus.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// ErrEmpty is returned by reducers that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, _ := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1), nil
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// RelErr returns the relative error |got-want| / |want|. A zero want
// with a nonzero got returns +Inf; zero/zero returns 0.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Rand is the deterministic random source used by the simulators. It is
// a thin wrapper that makes the seeding policy explicit at call sites.
// A Rand is not safe for concurrent use; parallel code derives one Rand
// per task via DeriveSeed so streams never cross goroutines.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// SplitMix64 is the finalizer of the SplitMix64 generator (Steele,
// Lea & Flood 2014): a cheap bijective mixer whose outputs pass BigCrush
// even on sequential inputs. It is the hash behind DeriveSeed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed derives an independent child seed from a base seed and a
// sequence of labels identifying one unit of work (stream tag, machine
// index, precision, grid index, repetition, ...). The labels are folded
// through SplitMix64 one at a time, so the derivation is order-sensitive
// — (1, 2) and (2, 1) give unrelated seeds — and depends only on the
// base seed and the labels, never on execution order. This is what lets
// a parallel sweep hand every task its own noise stream while staying
// byte-identical to the sequential run at any worker count.
func DeriveSeed(base int64, labels ...uint64) int64 {
	return int64(DeriveState(base, labels...))
}

// DeriveState is DeriveSeed's fold exposed as reusable state: it folds
// the base seed and labels and returns the running SplitMix64 state.
// Hot loops that derive one stream per iteration fold the shared label
// prefix once, then extend per iteration with ExtendState — no label
// slice per derivation. ExtendState(DeriveState(b, l...), x) equals
// uint64(DeriveSeed(b, append(l, x)...)) exactly.
func DeriveState(base int64, labels ...uint64) uint64 {
	x := SplitMix64(uint64(base))
	for _, l := range labels {
		x = SplitMix64(x ^ l)
	}
	return x
}

// ExtendState folds one more label into a DeriveState fold.
func ExtendState(state, label uint64) uint64 {
	return SplitMix64(state ^ label)
}

// DeriveRand returns a fresh random source seeded by DeriveSeed — the
// one-call form of "give this task its own stream".
func DeriveRand(base int64, labels ...uint64) *Rand {
	return NewRand(DeriveSeed(base, labels...))
}

// randPool recycles Rand storage. math/rand's default source carries a
// ~5 KB state array, so allocating one per derived stream is the single
// largest allocation in a parallel sweep; reseeding a recycled source
// rebuilds the exact same deterministic state without the allocation.
var randPool = sync.Pool{
	New: func() any { return &Rand{rand.New(rand.NewSource(0))} },
}

// BorrowRand returns a pooled random source reseeded for the given
// seed. The stream is bit-identical to NewRand(seed) — reseeding fully
// reinitialises the source — so pooling is invisible to determinism;
// only the backing storage is reused. Call Release when the stream is
// done; a borrowed Rand must not be used after Release.
func BorrowRand(seed int64) *Rand {
	r := randPool.Get().(*Rand)
	r.Rand.Seed(seed)
	return r
}

// BorrowDerived is BorrowRand(DeriveSeed(base, labels...)): the pooled
// form of DeriveRand for hot loops that create one stream per task.
func BorrowDerived(base int64, labels ...uint64) *Rand {
	return BorrowRand(DeriveSeed(base, labels...))
}

// Release returns the Rand's storage to the pool. It is safe to release
// a Rand created by NewRand or DeriveRand too; the next borrower
// reseeds it before use.
func (r *Rand) Release() {
	randPool.Put(r)
}

// HashLabel condenses a string (a machine key, a rail name) into a
// derivation label for DeriveSeed using FNV-1a 64.
func HashLabel(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Gaussian returns a normally distributed sample with the given mean
// and standard deviation.
func (r *Rand) Gaussian(mean, sd float64) float64 {
	return mean + sd*r.NormFloat64()
}

// RelNoise returns factor 1+eps where eps ~ N(0, sd), clamped so the
// factor stays within (0.05, 1.95); measurement noise never flips signs
// or collapses a quantity to nothing.
func (r *Rand) RelNoise(sd float64) float64 {
	f := 1 + sd*r.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	if f > 1.95 {
		f = 1.95
	}
	return f
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate) — the inter-arrival draw behind Poisson and
// Markov-modulated arrival processes. rate must be positive.
func (r *Rand) Exp(rate float64) float64 {
	return r.ExpFloat64() / rate
}

// Zipf samples ranks in [0, n) with P(rank) ∝ 1/(rank+1)^s via a
// precomputed inverse CDF. Unlike math/rand's Zipf it accepts any
// exponent s ≥ 0 (s = 0 degenerates to the uniform distribution), which
// is what synthetic content-popularity workloads need: real request
// skews cluster around s ≈ 0.6–1.3, straddling math/rand's s > 1
// requirement. Sampling costs one uniform draw and an indexed search
// (a guide table, Chen & Asau 1974): the draw's 1/n bucket names the
// first rank that can answer it, and the walk from there takes at most
// one step in expectation for any n and s. The result is exactly the
// rank a binary search of the CDF returns for the same draw. A Zipf is
// immutable after construction and safe for concurrent use with
// per-goroutine Rands.
type Zipf struct {
	cum   []float64 // cum[i] = P(rank <= i), cum[n-1] = 1
	guide []int32   // guide[j] = the first rank i with cum[i] >= j/n
}

// NewZipf builds the sampler for a universe of n ranks and exponent s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, errors.New("stats: zipf universe must be non-empty")
	}
	if n > math.MaxInt32 {
		return nil, errors.New("stats: zipf universe exceeds 2^31-1 ranks")
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, errors.New("stats: zipf exponent must be finite and non-negative")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // exact upper bound despite rounding
	return indexCDF(cum), nil
}

// indexCDF builds the sampler over cum, a non-decreasing CDF whose last
// entry is 1, by filling in its guide table.
func indexCDF(cum []float64) *Zipf {
	n := len(cum)
	guide := make([]int32, n)
	i := 0
	for j := range guide {
		for cum[i] < float64(j)/float64(n) {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cum: cum, guide: guide}
}

// N returns the universe size.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws one rank using r's stream.
func (z *Zipf) Sample(r *Rand) int { return z.rank(r.Float64()) }

// rank returns the smallest i with cum[i] >= u, for u in [0, 1]. It
// starts at the guide entry of u's 1/n bucket, steps back while the
// rank below also covers u (which only rounding in u·n or j/n can
// require), then forward while cum[i] < u.
func (z *Zipf) rank(u float64) int {
	n := len(z.cum)
	j := int(u * float64(n))
	if j >= n {
		j = n - 1
	}
	i := int(z.guide[j])
	for i > 0 && z.cum[i-1] >= u {
		i--
	}
	for z.cum[i] < u {
		i++
	}
	return i
}
