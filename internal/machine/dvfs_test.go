package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/strictjson"
)

func TestDefaultCurveValidates(t *testing.T) {
	curve := DefaultCurve()
	if err := ValidateCurve(curve); err != nil {
		t.Fatal(err)
	}
	if got, want := len(curve), len(DefaultFreqScales()); got != want {
		t.Fatalf("default curve has %d points, want %d", got, want)
	}
	if !curve[len(curve)-1].IsBase() {
		t.Fatal("default curve's fastest point is not the identity")
	}
}

func TestSynthesizedPointPhysics(t *testing.T) {
	law := DefaultScalingLaw()
	for _, s := range []float64{0.3, 0.5, 0.7, 0.9} {
		op := law.Point(s)
		if err := op.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := op.TauFlopScale, 1/s; math.Abs(got-want) > 1e-12 {
			t.Errorf("s=%g: tau flop scale %g, want 1/s = %g", s, got, want)
		}
		v := law.Voltage(s)
		if got, want := op.EpsFlopScale, v*v; math.Abs(got-want) > 1e-12 {
			t.Errorf("s=%g: eps flop scale %g, want V² = %g", s, got, want)
		}
		if op.TauMemScale != 1 || op.EpsMemScale != 1 {
			t.Errorf("s=%g: memory domain scaled (%g, %g), want 1", s, op.TauMemScale, op.EpsMemScale)
		}
		// The validated law keeps π0(s)/s minimized at full clock.
		if op.Pi0Scale <= s {
			t.Errorf("s=%g: pi0 scale %g not above s — constant energy per progress would improve below full clock", s, op.Pi0Scale)
		}
		if op.Pi0Scale >= 1 {
			t.Errorf("s=%g: pi0 scale %g should be below 1", s, op.Pi0Scale)
		}
	}
}

func TestScalingLawRejectsImprovingConstantEnergy(t *testing.T) {
	// A tiny floor with a deep voltage range makes π0(s)/s dip below 1
	// left of full clock; Validate must reject that combination.
	bad := ScalingLaw{VMin: 0.6, Pi0Floor: 0.1}
	if err := bad.Validate(); err == nil {
		t.Fatal("law with improving constant energy per progress validated")
	}
	if err := DefaultScalingLaw().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCurveValidation(t *testing.T) {
	base := BasePoint()
	slow := DefaultScalingLaw().Point(0.5)
	cases := []struct {
		name  string
		curve []OperatingPoint
	}{
		{"empty", nil},
		{"not ending at base", []OperatingPoint{slow}},
		{"non-increasing", []OperatingPoint{slow, slow, base}},
		{"duplicate name", func() []OperatingPoint {
			dup := DefaultScalingLaw().Point(0.6)
			dup.Name = slow.Name
			return []OperatingPoint{slow, dup, base}
		}()},
		{"zero scale", []OperatingPoint{{Name: "bad", FreqScale: 0.5, TauFlopScale: 2, TauMemScale: 1, EpsFlopScale: 0, EpsMemScale: 1, Pi0Scale: 1}, base}},
	}
	for _, tc := range cases {
		if err := ValidateCurve(tc.curve); err == nil {
			t.Errorf("%s: curve validated, want error", tc.name)
		}
	}
	if err := ValidateCurve([]OperatingPoint{slow, base}); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
}

func TestMachineCurveRoundTrip(t *testing.T) {
	m := DVFSCatalog()["gtx580"]
	data, err := m.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.OperatingPoints) != len(m.OperatingPoints) {
		t.Fatalf("round trip lost curve: %d points, want %d", len(got.OperatingPoints), len(m.OperatingPoints))
	}
	again, err := got.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("curve-bearing machine JSON does not round-trip byte-identically")
	}
	// A curveless machine's JSON must not mention operating points at
	// all — that is what keeps the pre-DVFS goldens byte-identical.
	plain, err := GTX580().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "operating_points") {
		t.Fatal("curveless machine serialises an operating_points field")
	}
}

func TestCloneCopiesCurve(t *testing.T) {
	m := DVFSCatalog()["i7-950"]
	c := m.Clone()
	c.OperatingPoints[0].Name = "mutated"
	if m.OperatingPoints[0].Name == "mutated" {
		t.Fatal("Clone shares curve storage with the original")
	}
}

func TestGTX580SMFamily(t *testing.T) {
	full := GTX580()
	for _, n := range []int{1, 4, 8, 16} {
		m := GTX580SMs(n)
		if err := m.Validate(); err != nil {
			t.Fatalf("%d SMs: %v", n, err)
		}
		frac := float64(n) / 16
		if got, want := m.DP.PeakFlops, full.DP.PeakFlops*frac; math.Abs(got/want-1) > 1e-12 {
			t.Errorf("%d SMs: DP peak %g, want %g", n, got, want)
		}
		if m.Bandwidth != full.Bandwidth {
			t.Errorf("%d SMs: bandwidth scaled, want shared memory interface", n)
		}
		if float64(m.DP.EnergyPerFlop) != float64(full.DP.EnergyPerFlop) {
			t.Errorf("%d SMs: per-flop energy scaled", n)
		}
		wantPow := float64(full.ConstantPower) * (0.4 + 0.6*frac)
		if got := float64(m.ConstantPower); math.Abs(got/wantPow-1) > 1e-12 {
			t.Errorf("%d SMs: π0 %g, want %g", n, got, wantPow)
		}
	}
	if GTX580SMs(16).Name != full.Name {
		t.Fatal("16 SMs should be the catalog GTX 580")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GTX580SMs(0) did not panic")
		}
	}()
	GTX580SMs(0)
}

func TestDVFSCatalogAndFind(t *testing.T) {
	for key, m := range DVFSCatalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", key, err)
		}
		if len(m.OperatingPoints) == 0 {
			t.Errorf("%s: DVFS catalog machine has no curve", key)
		}
	}
	// Keys shared with the base catalog keep identical base parameters.
	for _, key := range []string{"gtx580", "i7-950"} {
		d := DVFSCatalog()[key]
		c := Catalog()[key]
		d.OperatingPoints = nil
		dj, _ := d.ToJSON()
		cj, _ := c.ToJSON()
		if string(dj) != string(cj) {
			t.Errorf("%s: DVFS catalog base parameters drifted from the catalog", key)
		}
	}
	if _, ok := Find("gtx580-8sm"); !ok {
		t.Error("Find misses the multi-SM family")
	}
	if _, ok := Find("fermi"); !ok {
		t.Error("Find misses base catalog machines")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find resolved an unknown key")
	}
	if m, _ := Find("gtx580"); len(m.OperatingPoints) == 0 {
		t.Error("Find(gtx580) lost the DVFS curve")
	}
	keys := DVFSCatalogKeys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("DVFSCatalogKeys not sorted: %v", keys)
		}
	}
}

// curveInput is the JSON shape FuzzOperatingPointConfig decodes: a
// DVFS catalog key with either an explicit curve or a scaling law over
// clock fractions. The law fields start at DefaultScalingLaw and the
// fractions at DefaultFreqScales, so an input that leaves them out
// builds the catalog curve.
type curveInput struct {
	Machine    string           `json:"machine"`
	Points     []OperatingPoint `json:"points"`
	FreqScales []float64        `json:"freq_scales"`
	VMin       float64          `json:"v_min"`
	Pi0Floor   float64          `json:"pi0_floor"`
}

// decodeCurve strictly decodes data as a curveInput and returns the
// named machine carrying the curve it describes: the explicit points
// after ValidateCurve, or the law's Curve, which runs
// ScalingLaw.Validate and ValidateCurve.
func decodeCurve(data []byte) (*Machine, error) {
	law := DefaultScalingLaw()
	in := curveInput{FreqScales: DefaultFreqScales(), VMin: law.VMin, Pi0Floor: law.Pi0Floor}
	if err := strictjson.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	m, ok := Find(in.Machine)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", in.Machine)
	}
	curve := in.Points
	if len(curve) > 0 {
		if err := ValidateCurve(curve); err != nil {
			return nil, err
		}
	} else {
		var err error
		if curve, err = (ScalingLaw{VMin: in.VMin, Pi0Floor: in.Pi0Floor}).Curve(in.FreqScales); err != nil {
			return nil, err
		}
	}
	m.OperatingPoints = curve
	return m, nil
}

// TestParseOperatingPointConfig pins which inputs decodeCurve accepts,
// so the fuzz target's seeds reach the curve rules rather than stop at
// the decoder.
func TestParseOperatingPointConfig(t *testing.T) {
	// Defaults: machine only.
	m, err := decodeCurve([]byte(`{"machine":"gtx580"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.OperatingPoints) != len(DefaultFreqScales()) {
		t.Fatalf("default input built %d points, want %d", len(m.OperatingPoints), len(DefaultFreqScales()))
	}
	// Synthesis parameters.
	if _, err := decodeCurve([]byte(`{"machine":"i7-950","freq_scales":[0.5,1],"v_min":0.8,"pi0_floor":0.6}`)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		``,                              // empty
		`{}`,                            // no machine
		`{"machine":"nope"}`,            // not a DVFS catalog key
		`{"machine":"gtx580","nope":1}`, // unknown field
		`{"machine":"gtx580"} trailing`, // trailing data
		`{"machine":"gtx580"}}`,         // stray closing brace
		`{"machine":"gtx580"}]`,         // stray closing bracket
		`{"machine":"gtx580"} {}`,       // second value
		`{"machine":"gtx580","freq_scales":[1,0.5]}`,       // not increasing
		`{"machine":"gtx580","freq_scales":[0.5]}`,         // does not end at 1
		`{"machine":"gtx580","freq_scales":[0,1]}`,         // zero clock fraction
		`{"machine":"gtx580","freq_scales":[]}`,            // empty curve
		`{"machine":"gtx580","v_min":0.5,"pi0_floor":0.3}`, // law violates the convexity bound
		`{"machine":"gtx580","points":[{"name":"x","freq_scale":0.5,"tau_flop_scale":2,"tau_mem_scale":1,"eps_flop_scale":0.8,"eps_mem_scale":1,"pi0_scale":0.8}]}`, // explicit curve not ending at the identity
	} {
		if _, err := decodeCurve([]byte(bad)); err == nil {
			t.Errorf("input %q decoded, want error", bad)
		}
	}
	// Explicit points.
	pts := `{"machine":"gtx580","points":[
	  {"name":"half","freq_scale":0.5,"tau_flop_scale":2,"tau_mem_scale":1,"eps_flop_scale":0.77,"eps_mem_scale":1,"pi0_scale":0.66},
	  {"name":"full","freq_scale":1,"tau_flop_scale":1,"tau_mem_scale":1,"eps_flop_scale":1,"eps_mem_scale":1,"pi0_scale":1}]}`
	m, err = decodeCurve([]byte(pts))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.OperatingPoints) != 2 || m.OperatingPoints[0].Name != "half" {
		t.Fatalf("explicit points mangled: %+v", m.OperatingPoints)
	}
}

// FuzzOperatingPointConfig is the curve rules' differential target: any
// byte slice either fails decodeCurve (strictjson, ScalingLaw.Curve,
// ValidateCurve) or yields a machine that validates and round-trips
// through its JSON encoding.
func FuzzOperatingPointConfig(f *testing.F) {
	f.Add([]byte(`{"machine":"gtx580"}`))
	f.Add([]byte(`{"machine":"i7-950","freq_scales":[0.25,0.5,0.75,1]}`))
	f.Add([]byte(`{"machine":"gtx580-8sm","v_min":0.9,"pi0_floor":0.7}`))
	f.Add([]byte(`{"machine":"gtx580-4sm","points":[{"name":"half","freq_scale":0.5,"tau_flop_scale":2,"tau_mem_scale":1,"eps_flop_scale":0.77,"eps_mem_scale":1,"pi0_scale":0.66},{"name":"full","freq_scale":1,"tau_flop_scale":1,"tau_mem_scale":1,"eps_flop_scale":1,"eps_mem_scale":1,"pi0_scale":1}]}`))
	f.Add([]byte(`{"machine":"gtx580","freq_scales":[1,0.5]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCurve(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("valid curve rejected by machine validation: %v", err)
		}
		// The curve round-trips through the machine encoding.
		data2, err := m.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromJSON(data2)
		if err != nil {
			t.Fatalf("curve-bearing machine does not round-trip: %v", err)
		}
		if len(got.OperatingPoints) != len(m.OperatingPoints) {
			t.Fatalf("round trip kept %d of %d points", len(got.OperatingPoints), len(m.OperatingPoints))
		}
	})
}

func TestCurveJSONStable(t *testing.T) {
	// Curve JSON is deterministic (struct field order).
	a, err := json.Marshal(DefaultCurve())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(DefaultCurve())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("curve JSON not deterministic")
	}
}
