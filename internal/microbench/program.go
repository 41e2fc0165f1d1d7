// Package microbench reconstructs the paper's intensity microbenchmarks
// (§IV-B): kernels with controllable flop:byte ratio, tuned to run as
// close to the roofline as the platform allows, swept over intensity to
// produce the (W, Q, T, R) tuples that instantiate the energy model via
// linear regression (eq. 9).
//
// Two kernel generators mirror the paper's: an FMA/load mix (the GPU
// benchmark) and a polynomial evaluation whose degree sets the intensity
// (the CPU benchmark). Kernels are generated as explicit, fully unrolled
// instruction streams; the op counts of the stream are what gets
// executed, which is the reproduction's analogue of verifying the
// emitted PTX. A small interpreter executes the streams so generated
// kernels can also be checked for numerical correctness against a
// direct reference implementation, as the paper checks its GPU kernel
// against an equivalent CPU kernel.
package microbench

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/machine"
)

// Op is one instruction in a generated kernel.
type Op uint8

const (
	// OpLoad reads the next element from the input stream into the
	// working register.
	OpLoad Op = iota
	// OpFMA performs acc = acc*coeff + reg, counted as two flops
	// (the paper counts FMAs as two flops each).
	OpFMA
	// OpStore writes acc to the output stream.
	OpStore
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "load"
	case OpFMA:
		return "fma"
	case OpStore:
		return "store"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Program is a fully unrolled kernel body: the per-element instruction
// stream plus how many elements it processes.
type Program struct {
	// Body is the instruction sequence applied to each element.
	Body []Op
	// Elements is the number of input elements the kernel processes.
	Elements int
	// Precision fixes the word size.
	Precision machine.Precision
}

// Counts returns the kernel's total work W (flops) and memory traffic Q
// (bytes), derived purely from the instruction stream — the analogue of
// inspecting the generated PTX.
func (p Program) Counts() (w, q float64) {
	var flops, words float64
	for _, op := range p.Body {
		switch op {
		case OpFMA:
			flops += 2
		case OpLoad, OpStore:
			words++
		}
	}
	n := float64(p.Elements)
	return flops * n, words * n * float64(p.Precision.WordSize())
}

// Execute interprets the program over the input, returning one output
// value per element. Each element's evaluation starts with acc = 0;
// OpLoad pulls the element (inputs are reused cyclically for bodies
// with several loads), OpFMA folds it in Horner style. The outputs give
// generated kernels something to be checked against, mirroring the
// paper's correctness verification of the tuned GPU kernel.
func (p Program) Execute(input []float64, coeff float64) ([]float64, error) {
	if p.Elements <= 0 {
		return nil, errors.New("microbench: program has no elements")
	}
	if len(input) == 0 {
		return nil, errors.New("microbench: empty input")
	}
	out := make([]float64, 0, p.Elements)
	for e := 0; e < p.Elements; e++ {
		acc := 0.0
		reg := 0.0
		li := 0
		stored := false
		for _, op := range p.Body {
			switch op {
			case OpLoad:
				reg = input[(e+li)%len(input)]
				li++
			case OpFMA:
				acc = acc*coeff + reg
			case OpStore:
				out = append(out, acc)
				stored = true
			}
		}
		if !stored {
			out = append(out, acc)
		}
	}
	return out, nil
}

// PolynomialDegreeFor returns the polynomial degree whose Horner
// evaluation yields the closest achievable intensity at the given
// precision: one load of x plus d FMAs per element gives
// I = 2d/wordsize flops per byte. Degree is at least 1.
func PolynomialDegreeFor(intensity float64, prec machine.Precision) int {
	d := int(math.Round(intensity * float64(prec.WordSize()) / 2))
	if d < 1 {
		d = 1
	}
	return d
}

// GeneratePolynomial builds the CPU-style kernel: for each of n
// elements, load x then evaluate a degree-d polynomial by d FMAs,
// accumulating the result (no store, so traffic is one word per
// element and I = 2d/wordsize exactly as PolynomialDegreeFor assumes).
func GeneratePolynomial(degree, n int, prec machine.Precision) (Program, error) {
	if degree < 1 || n < 1 {
		return Program{}, errors.New("microbench: degree and element count must be >= 1")
	}
	body := make([]Op, 0, degree+1)
	body = append(body, OpLoad)
	for i := 0; i < degree; i++ {
		body = append(body, OpFMA)
	}
	return Program{Body: body, Elements: n, Precision: prec}, nil
}

// GenerateFMAMix builds the GPU-style kernel: per element, `loads`
// memory loads and `fmas` independent FMA operations, fully unrolled.
// Intensity = 2·fmas / (loads·wordsize).
func GenerateFMAMix(fmas, loads, n int, prec machine.Precision) (Program, error) {
	if fmas < 1 || loads < 1 || n < 1 {
		return Program{}, errors.New("microbench: fma, load and element counts must be >= 1")
	}
	body := make([]Op, 0, fmas+loads)
	// Interleave loads through the FMA stream the way an unrolled
	// latency-hiding kernel would.
	ratio := float64(fmas) / float64(loads)
	fi := 0.0
	for l := 0; l < loads; l++ {
		body = append(body, OpLoad)
		for fi < ratio*float64(l+1) {
			body = append(body, OpFMA)
			fi++
		}
	}
	for fi < float64(fmas) {
		body = append(body, OpFMA)
		fi++
	}
	return Program{Body: body, Elements: n, Precision: prec}, nil
}

// MixFor returns (fmas, loads) per element approximating the target
// intensity at the given precision, preferring small counts: with one
// load per element, fmas = I·wordsize/2, rounded, floored at 1. For
// intensities below 2/wordsize it increases the load count instead.
func MixFor(intensity float64, prec machine.Precision) (fmas, loads int) {
	ws := float64(prec.WordSize())
	if intensity >= 2/ws {
		f := int(math.Round(intensity * ws / 2))
		if f < 1 {
			f = 1
		}
		return f, 1
	}
	l := int(math.Round(2 / (intensity * ws)))
	if l < 1 {
		l = 1
	}
	return 1, l
}

// Disassemble renders the per-element body compactly, run-length
// encoded — the reproduction's analogue of inspecting the emitted PTX
// to verify what actually executes ("fma×64 load×1 …").
func (p Program) Disassemble() string {
	if len(p.Body) == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d elements (%v): ", p.Elements, p.Precision)
	run := p.Body[0]
	count := 1
	flush := func() {
		if count == 1 {
			fmt.Fprintf(&sb, "%v ", run)
		} else {
			fmt.Fprintf(&sb, "%v×%d ", run, count)
		}
	}
	for _, op := range p.Body[1:] {
		if op == run {
			count++
			continue
		}
		flush()
		run, count = op, 1
	}
	flush()
	w, q := p.Counts()
	fmt.Fprintf(&sb, "→ W=%g Q=%g I=%.4g", w, q, w/q)
	return strings.TrimSpace(sb.String())
}

// ReferencePolynomial evaluates the degree-d Horner polynomial with all
// coefficients equal to x's loaded value semantics used by Execute:
// acc_{k+1} = acc_k·c + x, acc_0 = 0. Used to validate generated
// polynomial kernels.
func ReferencePolynomial(x, c float64, degree int) float64 {
	acc := 0.0
	for i := 0; i < degree; i++ {
		acc = acc*c + x
	}
	return acc
}
