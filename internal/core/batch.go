package core

import "math"

// This file is the columnar (batch) evaluation path of the model. Every
// kernel below computes exactly the same float64 expression, in the same
// association order, as the scalar method it mirrors, so batch results
// are bit-identical to a scalar loop — a property pinned by the lockstep
// tests and the FuzzBatchEval differential fuzz target. The loops take
// flat []float64 columns and caller-provided output buffers: steady-state
// use performs zero allocations, and the bodies are straight-line
// data-parallel code the compiler can keep in registers.

// Batch holds the output columns of a fused EvalInto call. Reusing one
// Batch across calls reuses the column storage (see Reserve), so a sweep
// that evaluates millions of points allocates only on the first call.
type Batch struct {
	// Time is the eq. (3) roofline time per point.
	Time []float64
	// Energy is the eq. (4) total energy per point.
	Energy []float64
	// Power is Energy/Time per point.
	Power []float64
	// CappedTime is the §V-B power-capped execution time per point.
	CappedTime []float64
	// CappedEnergy is the total energy with the cap enforced.
	CappedEnergy []float64
	// CappedPower is CappedEnergy/CappedTime per point.
	CappedPower []float64
}

// grow returns s resized to length n, reusing its backing array when the
// capacity allows and allocating a fresh one only when it does not.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// Reserve sizes every column to n points, reusing existing capacity.
// Contents are unspecified afterwards; callers overwrite every element.
func (b *Batch) Reserve(n int) {
	b.Time = grow(b.Time, n)
	b.Energy = grow(b.Energy, n)
	b.Power = grow(b.Power, n)
	b.CappedTime = grow(b.CappedTime, n)
	b.CappedEnergy = grow(b.CappedEnergy, n)
	b.CappedPower = grow(b.CappedPower, n)
}

// Len returns the number of points the batch currently holds.
func (b *Batch) Len() int { return len(b.Time) }

// checkCols panics unless every column length equals n. Batch kernels
// require pre-sized outputs so the inner loops carry no append logic.
func checkCols(n int, lens ...int) {
	for _, l := range lens {
		if l != n {
			panic("core: batch column length mismatch")
		}
	}
}

// EvalInto evaluates the full model over the (W, Q) columns in one fused
// pass, filling every column of b (sized via Reserve). Each output is
// bit-identical to the corresponding scalar method applied per point.
func (p Params) EvalInto(b *Batch, w, q []float64) {
	n := len(w)
	checkCols(n, len(q))
	b.Reserve(n)
	tf, tm, ef, em, pi0 := p.TauFlop, p.TauMem, p.EpsFlop, p.EpsMem, p.Pi0
	pcap := p.PowerCap
	capMinusPi0 := pcap - pi0
	tc, ec, pc := b.Time[:n], b.Energy[:n], b.Power[:n]
	ctc, cec, cpc := b.CappedTime[:n], b.CappedEnergy[:n], b.CappedPower[:n]
	w, q = w[:n], q[:n]
	for i := 0; i < n; i++ {
		wi, qi := w[i], q[i]
		t := math.Max(wi*tf, qi*tm)
		dyn := wi*ef + qi*em
		e := dyn + pi0*t
		tc[i] = t
		ec[i] = e
		pc[i] = e / t
		ct := t
		// Mirrors CappedTime's guards exactly: !(cap <= 0), not cap > 0,
		// so a NaN cap throttles in both paths (NaN fails either
		// comparison, and the scalar guard is the <= one).
		if !(pcap <= 0) && !(e/t <= pcap) {
			ct = dyn / capMinusPi0
		}
		ce := dyn + pi0*ct
		ctc[i] = ct
		cec[i] = ce
		cpc[i] = ce / ct
	}
}

// QAtInto fills dst[i] = w[i]/intensity[i], the traffic column of
// KernelAt applied per point.
func QAtInto(dst, w, intensity []float64) {
	n := len(dst)
	checkCols(n, len(w), len(intensity))
	w, intensity = w[:n], intensity[:n]
	for i := range dst {
		dst[i] = w[i] / intensity[i]
	}
}

// RooflineTimeInto fills dst[i] = RooflineTime(intensity[i]), the
// normalized Fig. 2a roofline over an intensity column.
func (p Params) RooflineTimeInto(dst, intensity []float64) {
	n := len(dst)
	checkCols(n, len(intensity))
	bt := p.BalanceTime()
	intensity = intensity[:n]
	for i := range dst {
		dst[i] = math.Min(1, intensity[i]/bt)
	}
}

// ArchlineEnergyInto fills dst[i] = ArchlineEnergy(intensity[i]), the
// normalized Fig. 2a arch line over an intensity column.
func (p Params) ArchlineEnergyInto(dst, intensity []float64) {
	n := len(dst)
	checkCols(n, len(intensity))
	eta, be, bt := p.EtaFlop(), p.BalanceEnergy(), p.BalanceTime()
	intensity = intensity[:n]
	for i := range dst {
		x := intensity[i]
		switch {
		case x <= 0:
			dst[i] = 0
		case math.IsInf(x, 1):
			dst[i] = 1
		default:
			ebe := eta*be + (1-eta)*math.Max(0, bt-x)
			dst[i] = 1 / (1 + ebe/x)
		}
	}
}

// PowerLineInto fills dst[i] = PowerLine(intensity[i]), eq. (7), over an
// intensity column.
func (p Params) PowerLineInto(dst, intensity []float64) {
	n := len(dst)
	checkCols(n, len(intensity))
	eta, be, bt := p.EtaFlop(), p.BalanceEnergy(), p.BalanceTime()
	pf := p.PiFlop() / p.EtaFlop()
	intensity = intensity[:n]
	for i := range dst {
		x := intensity[i]
		ebe := eta*be + (1-eta)*math.Max(0, bt-x)
		dst[i] = pf * (math.Min(x, bt)/bt + ebe/math.Max(x, bt))
	}
}

// CappedPowerLineInto fills dst[i] = CappedPowerLine(intensity[i]): the
// eq. (7) power line clipped at the cap when one is set.
func (p Params) CappedPowerLineInto(dst, intensity []float64) {
	p.PowerLineInto(dst, intensity)
	if p.PowerCap <= 0 {
		return
	}
	pcap := p.PowerCap
	for i := range dst {
		if dst[i] > pcap {
			dst[i] = pcap
		}
	}
}

// TimeBoundInto fills dst[i] = TimeBound({w[i], q[i]}): compute-bound
// where the point's intensity reaches B_τ.
func (p Params) TimeBoundInto(dst []BoundState, w, q []float64) {
	n := len(dst)
	checkCols(n, len(w), len(q))
	p.boundInto(dst, w[:n], q[:n], p.BalanceTime())
}

// EnergyBoundInto fills dst[i] = EnergyBound({w[i], q[i]}): compute-bound
// where the point's intensity reaches the half-efficiency intensity.
func (p Params) EnergyBoundInto(dst []BoundState, w, q []float64) {
	n := len(dst)
	checkCols(n, len(w), len(q))
	p.boundInto(dst, w[:n], q[:n], p.HalfEfficiencyIntensity())
}

// boundInto classifies each point's intensity against one threshold,
// reproducing Kernel.Intensity's Q == 0 → +Inf convention inline.
func (p Params) boundInto(dst []BoundState, w, q []float64, threshold float64) {
	inf := math.Inf(1)
	for i := range dst {
		x := inf
		if q[i] != 0 {
			x = w[i] / q[i]
		}
		if x >= threshold {
			dst[i] = ComputeBound
		} else {
			dst[i] = MemoryBound
		}
	}
}
