package strictjson

import (
	"strings"
	"testing"
)

type point struct {
	Machine   string  `json:"machine"`
	Intensity float64 `json:"intensity"`
}

func TestUnmarshal(t *testing.T) {
	for _, in := range []string{
		`{"machine":"gtx580","intensity":2}`,
		" \t\r\n{\"machine\":\"gtx580\"} \t\r\n",
		`null`,
	} {
		var p point
		if err := Unmarshal([]byte(in), &p); err != nil {
			t.Errorf("Unmarshal(%q): %v", in, err)
		}
	}
	var p point
	if err := Unmarshal([]byte(`{"machine":"i7-950","intensity":0.5}`), &p); err != nil || p != (point{"i7-950", 0.5}) {
		t.Errorf("decoded %+v, %v", p, err)
	}
}

func TestUnmarshalRejects(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"stray brace", `{"machine":"gtx580"}}`, "trailing data"},
		{"stray bracket", `{"machine":"gtx580"}]`, "trailing data"},
		{"second value", `{"machine":"gtx580"} {}`, "trailing data"},
		{"trailing word", `{"machine":"gtx580"} extra`, "trailing data"},
		{"unknown field", `{"machine":"gtx580","bogus":1}`, `unknown field "bogus"`},
		{"empty", ``, "EOF"},
		{"truncated", `{"machine":`, "EOF"},
		{"wrong type", `{"intensity":"high"}`, "cannot unmarshal"},
	}
	for _, c := range cases {
		var p point
		err := Unmarshal([]byte(c.in), &p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Unmarshal(%q) = %v, want error containing %q", c.name, c.in, err, c.want)
		}
	}
}
