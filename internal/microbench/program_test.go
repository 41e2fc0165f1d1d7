package microbench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestPolynomialCounts(t *testing.T) {
	p, err := GeneratePolynomial(10, 1000, machine.Single)
	if err != nil {
		t.Fatal(err)
	}
	w, q := p.Counts()
	if w != 2*10*1000 {
		t.Errorf("W = %v, want 20000", w)
	}
	if q != 4*1000 {
		t.Errorf("Q = %v, want 4000", q)
	}
	// I = 2d/wordsize = 20/4 = 5 flop/byte.
	if got := w / q; math.Abs(got-5) > 1e-12 {
		t.Errorf("intensity = %v, want 5", got)
	}
	// Double precision halves the intensity.
	pd, _ := GeneratePolynomial(10, 1000, machine.Double)
	if wd, qd := pd.Counts(); math.Abs(wd/qd-2.5) > 1e-12 {
		t.Errorf("double intensity = %v, want 2.5", wd/qd)
	}
}

func TestPolynomialDegreeForRoundTrip(t *testing.T) {
	for _, prec := range []machine.Precision{machine.Single, machine.Double} {
		for _, target := range []float64{0.5, 1, 2, 4, 8, 16, 32} {
			d := PolynomialDegreeFor(target, prec)
			p, err := GeneratePolynomial(d, 10, prec)
			if err != nil {
				t.Fatal(err)
			}
			w, q := p.Counts()
			got := w / q
			// Degree granularity bounds the error to half a step.
			step := 2.0 / float64(prec.WordSize())
			if math.Abs(got-target) > step/2+1e-12 {
				t.Errorf("%v target %v: degree %d gives %v", prec, target, d, got)
			}
		}
	}
	if PolynomialDegreeFor(0.001, machine.Single) != 1 {
		t.Error("degree must floor at 1")
	}
}

func TestFMAMixCounts(t *testing.T) {
	p, err := GenerateFMAMix(8, 2, 100, machine.Single)
	if err != nil {
		t.Fatal(err)
	}
	w, q := p.Counts()
	if w != 2*8*100 || q != 2*4*100 {
		t.Errorf("W, Q = %v, %v", w, q)
	}
	// I = 2·8/(2·4) = 2.
	if got := w / q; math.Abs(got-2) > 1e-12 {
		t.Errorf("intensity = %v, want 2", got)
	}
	// Loads are interleaved, not clumped: the first op is a load and
	// FMAs appear between loads.
	if p.Body[0] != OpLoad {
		t.Error("body must start with a load")
	}
	var nl, nf int
	for _, op := range p.Body {
		switch op {
		case OpLoad:
			nl++
		case OpFMA:
			nf++
		}
	}
	if nl != 2 || nf != 8 {
		t.Errorf("body has %d loads, %d fmas", nl, nf)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GeneratePolynomial(0, 10, machine.Single); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := GeneratePolynomial(1, 0, machine.Single); err == nil {
		t.Error("0 elements accepted")
	}
	if _, err := GenerateFMAMix(0, 1, 1, machine.Single); err == nil {
		t.Error("0 fmas accepted")
	}
	if _, err := GenerateFMAMix(1, 0, 1, machine.Single); err == nil {
		t.Error("0 loads accepted")
	}
	if _, err := GenerateFMAMix(1, 1, 0, machine.Single); err == nil {
		t.Error("0 elements accepted")
	}
}

func TestMixForTargets(t *testing.T) {
	for _, prec := range []machine.Precision{machine.Single, machine.Double} {
		ws := float64(prec.WordSize())
		for _, target := range []float64{1.0 / 16, 1.0 / 4, 0.5, 1, 2, 8, 64} {
			fmas, loads := MixFor(target, prec)
			got := 2 * float64(fmas) / (float64(loads) * ws)
			// Rounding to integer op counts bounds the relative error.
			if got < target/2 || got > target*2 {
				t.Errorf("%v target %v: mix (%d,%d) gives %v", prec, target, fmas, loads, got)
			}
		}
	}
}

func TestExecuteMatchesReferencePolynomial(t *testing.T) {
	// The paper verifies its tuned GPU kernel against an equivalent CPU
	// kernel; here the interpreted instruction stream must match the
	// direct Horner evaluation.
	const degree = 7
	const c = 0.5
	p, err := GeneratePolynomial(degree, 5, machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	input := []float64{1, -2, 3.5, 0.25, 10}
	out, err := p.Execute(input, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d outputs", len(out))
	}
	for i, x := range input {
		want := ReferencePolynomial(x, c, degree)
		if math.Abs(out[i]-want) > 1e-12*math.Abs(want) {
			t.Errorf("element %d: %v, want %v", i, out[i], want)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	p, _ := GeneratePolynomial(2, 3, machine.Single)
	if _, err := p.Execute(nil, 1); err == nil {
		t.Error("empty input accepted")
	}
	bad := Program{Body: []Op{OpLoad}, Elements: 0}
	if _, err := bad.Execute([]float64{1}, 1); err == nil {
		t.Error("0 elements accepted")
	}
}

func TestExecuteWithExplicitStore(t *testing.T) {
	p := Program{
		Body:      []Op{OpLoad, OpFMA, OpStore},
		Elements:  2,
		Precision: machine.Single,
	}
	out, err := p.Execute([]float64{3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// acc = 0*2 + x = x.
	if out[0] != 3 || out[1] != 4 {
		t.Errorf("out = %v", out)
	}
	// Store contributes to Q.
	_, q := p.Counts()
	if q != 2*2*4 {
		t.Errorf("Q with store = %v, want 16", q)
	}
}

func TestOpString(t *testing.T) {
	if OpLoad.String() != "load" || OpFMA.String() != "fma" || OpStore.String() != "store" {
		t.Error("op strings")
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown op string")
	}
}

func TestZeroTrafficProgramIntensity(t *testing.T) {
	p := Program{Body: []Op{OpFMA}, Elements: 1, Precision: machine.Single}
	if w, q := p.Counts(); w != 2 || q != 0 || !math.IsInf(w/q, 1) {
		t.Errorf("flops-only program: W = %v, Q = %v; want 2 flops, no traffic, infinite intensity", w, q)
	}
}

func TestPropMixIntensityPositive(t *testing.T) {
	f := func(raw float64, dp bool) bool {
		target := math.Exp2(math.Mod(raw, 10)) // 2^-10 .. 2^10
		prec := machine.Single
		if dp {
			prec = machine.Double
		}
		fmas, loads := MixFor(target, prec)
		if fmas < 1 || loads < 1 {
			return false
		}
		p, err := GenerateFMAMix(fmas, loads, 3, prec)
		if err != nil {
			return false
		}
		w, q := p.Counts()
		return w > 0 && q > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDisassemble(t *testing.T) {
	p, err := GeneratePolynomial(64, 100, machine.Single)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Disassemble()
	for _, want := range []string{"100 elements (single)", "load", "fma×64", "I=32"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q: %s", want, d)
		}
	}
	if (Program{}).Disassemble() != "(empty)" {
		t.Error("empty program disassembly")
	}
	// Interleaved mixes run-length encode per run.
	m, err := GenerateFMAMix(4, 2, 10, machine.Double)
	if err != nil {
		t.Fatal(err)
	}
	dm := m.Disassemble()
	if !strings.Contains(dm, "load") || !strings.Contains(dm, "fma") {
		t.Errorf("mix disassembly wrong: %s", dm)
	}
}
