// Package metrics implements the composite time–energy figures of
// merit the paper surveys in §VI (Metrics): the energy–delay product
// family EDⁿP (Gonzalez & Horowitz; Bekas & Curioni's generalisation),
// flops per Joule (the Green500's FLOP/s per Watt), and a normalized
// machine-relative "green index"-style score. These let the model's
// outputs be ranked the way the energy-efficiency community ranks
// systems, and expose when optimizing a composite metric disagrees
// with optimizing time or energy alone.
package metrics

import (
	"errors"
	"math"

	"repro/internal/core"
)

// EDP returns the energy–delay product E·T in Joule-seconds.
func EDP(energy, time float64) float64 { return energy * time }

// EDnP returns the generalised energy–delay product E·Tⁿ; n = 0 is
// energy alone, n = 1 the classic EDP, n = 2 the delay-squared variant
// that weights performance more heavily.
func EDnP(energy, time float64, n int) (float64, error) {
	if n < 0 {
		return 0, errors.New("metrics: delay exponent must be non-negative")
	}
	return energy * math.Pow(time, float64(n)), nil
}

// FlopsPerJoule returns W/E — identical to sustained FLOP/s per Watt,
// the Green500 ranking metric.
func FlopsPerJoule(w, energy float64) float64 { return w / energy }

// Score evaluates all the figures of merit for kernel k on machine
// parameters p.
type Score struct {
	// Time and Energy are the model's eq. (3) and eq. (4) costs.
	Time, Energy float64
	// EDP and ED2P are E·T and E·T².
	EDP, ED2P float64
	// FlopsPerJoule is W/E.
	FlopsPerJoule float64
	// FlopsPerSecond is W/T.
	FlopsPerSecond float64
	// GreenIndex is the fraction of the machine's best possible
	// energy efficiency this kernel attains: (W/E)·ε̂flop ∈ (0, 1].
	GreenIndex float64
	// SpeedIndex is the analogous fraction of peak speed: (W/T)·τflop.
	SpeedIndex float64
}

// Evaluate computes the Score of kernel k under parameters p.
func Evaluate(p core.Params, k core.Kernel) (Score, error) {
	if k.W <= 0 {
		return Score{}, errors.New("metrics: kernel must have positive work")
	}
	t := p.Time(k)
	e := p.Energy(k)
	return Score{
		Time:           t,
		Energy:         e,
		EDP:            EDP(e, t),
		ED2P:           e * t * t,
		FlopsPerJoule:  k.W / e,
		FlopsPerSecond: k.W / t,
		GreenIndex:     (k.W / e) * p.EpsFlopHat(),
		SpeedIndex:     (k.W / t) * p.TauFlop,
	}, nil
}

// ScoreColumns holds the columnar figures of merit EvaluateBatch fills:
// column c, row i is the same number Evaluate would report for point i.
// Reusing one ScoreColumns value across calls reuses the storage.
type ScoreColumns struct {
	// Time and Energy are the eq. (3) and eq. (4) cost columns.
	Time, Energy []float64
	// EDP and ED2P are E·T and E·T² per point.
	EDP, ED2P []float64
	// FlopsPerJoule is W/E per point.
	FlopsPerJoule []float64
	// FlopsPerSecond is W/T per point.
	FlopsPerSecond []float64
	// GreenIndex is (W/E)·ε̂flop per point.
	GreenIndex []float64
	// SpeedIndex is (W/T)·τflop per point.
	SpeedIndex []float64
}

// grow returns s resized to length n, reusing capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// Reserve sizes every column to n points, reusing existing capacity.
func (s *ScoreColumns) Reserve(n int) {
	s.Time = grow(s.Time, n)
	s.Energy = grow(s.Energy, n)
	s.EDP = grow(s.EDP, n)
	s.ED2P = grow(s.ED2P, n)
	s.FlopsPerJoule = grow(s.FlopsPerJoule, n)
	s.FlopsPerSecond = grow(s.FlopsPerSecond, n)
	s.GreenIndex = grow(s.GreenIndex, n)
	s.SpeedIndex = grow(s.SpeedIndex, n)
}

// EvaluateBatch computes every figure of merit over the (W, Q) columns
// in one pass, writing into out (sized via Reserve). Each column is
// bit-identical to a loop of Evaluate calls; like Evaluate, it rejects
// any point with non-positive work.
func EvaluateBatch(p core.Params, out *ScoreColumns, w, q []float64) error {
	if len(q) != len(w) {
		return errors.New("metrics: W and Q columns must have equal length")
	}
	for _, wi := range w {
		if wi <= 0 {
			return errors.New("metrics: kernel must have positive work")
		}
	}
	n := len(w)
	out.Reserve(n)
	tf, tm, ef, em, pi0 := p.TauFlop, p.TauMem, p.EpsFlop, p.EpsMem, p.Pi0
	efHat := p.EpsFlopHat()
	tc, ec := out.Time[:n], out.Energy[:n]
	edp, ed2p := out.EDP[:n], out.ED2P[:n]
	fpj, fps := out.FlopsPerJoule[:n], out.FlopsPerSecond[:n]
	gi, si := out.GreenIndex[:n], out.SpeedIndex[:n]
	w, q = w[:n], q[:n]
	for i := 0; i < n; i++ {
		wi, qi := w[i], q[i]
		t := math.Max(wi*tf, qi*tm)
		e := wi*ef + qi*em + pi0*t
		tc[i] = t
		ec[i] = e
		edp[i] = e * t
		ed2p[i] = e * t * t
		fpj[i] = wi / e
		fps[i] = wi / t
		gi[i] = (wi / e) * efHat
		si[i] = (wi / t) * tf
	}
	return nil
}

// Flatness returns the ratio metric(I)/metric(2I) for the EDⁿP family:
// values near 1 mean more intensity no longer buys improvement (the
// kernel has passed the relevant balance point).
func Flatness(p core.Params, w, intensity float64, n int) (float64, error) {
	if intensity <= 0 {
		return 0, errors.New("metrics: intensity must be positive")
	}
	k1 := core.KernelAt(w, intensity)
	k2 := core.KernelAt(w, 2*intensity)
	v1, err := EDnP(p.Energy(k1), p.Time(k1), n)
	if err != nil {
		return 0, err
	}
	v2, err := EDnP(p.Energy(k2), p.Time(k2), n)
	if err != nil {
		return 0, err
	}
	return v2 / v1, nil
}
