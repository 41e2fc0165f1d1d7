package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fastCfg() Config { return Config{Seed: 42, Fast: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tableI", "tableII", "tableIII", "tableIV",
		"fig2a", "fig2b", "fig4a", "fig4b", "fig5a", "fig5b",
		"peaks", "fmmu", "greenup", "racetohalt",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(ids) {
		t.Error("All() and IDs() disagree")
	}
	if _, ok := ByID("fig4a"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
}

// Every experiment runs clean in fast mode and passes all its
// tolerance-checked comparisons — the repository's headline check.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are expensive")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			for _, f := range rep.Failures() {
				t.Errorf("comparison %q: paper %v vs reproduced %v", f.Name, f.Paper, f.Measured)
			}
			if out := rep.Render(); !strings.Contains(out, rep.ID) {
				t.Error("render missing experiment ID")
			}
		})
	}
}

func TestComparisonOk(t *testing.T) {
	if !(Comparison{Paper: 100, Measured: 104, Tol: 0.05}).Ok() {
		t.Error("4% deviation within 5% should be ok")
	}
	if (Comparison{Paper: 100, Measured: 110, Tol: 0.05}).Ok() {
		t.Error("10% deviation above 5% should fail")
	}
	if !(Comparison{Paper: 5, Measured: 123}).Ok() {
		t.Error("informational comparison should be ok")
	}
	if !(Comparison{Paper: 0, Measured: 1e-20, Tol: 1e-14}).Ok() {
		t.Error("zero-paper absolute comparison")
	}
	if (Comparison{Paper: 0, Measured: 1, Tol: 1e-14}).Ok() {
		t.Error("zero-paper absolute comparison should fail at 1")
	}
}

func TestReportRenderFlags(t *testing.T) {
	r := &Report{
		ID: "x", Title: "t",
		Comparisons: []Comparison{
			{Name: "good", Paper: 1, Measured: 1, Tol: 0.01},
			{Name: "bad", Paper: 1, Measured: 2, Tol: 0.01},
			{Name: "informational", Paper: 1, Measured: 2, Note: "context"},
		},
		Text: "body",
	}
	out := r.Render()
	for _, want := range []string{"DEVIATES", "info", "(context)", "body"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if len(r.Failures()) != 1 {
		t.Errorf("failures = %d, want 1", len(r.Failures()))
	}
}

func TestFig2aSVGOutput(t *testing.T) {
	dir := t.TempDir()
	e, _ := ByID("fig2a")
	if _, err := e.Run(Config{Seed: 1, Fast: true, SVGDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2a.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("SVG file malformed")
	}
}

func TestTableIGlossaryMentionsAllMachines(t *testing.T) {
	e, _ := ByID("tableI")
	rep, err := e.Run(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fermi", "gtx580", "i7-950", "single", "double"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("glossary missing %q", want)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	e, _ := ByID("tableII")
	a, err := e.Run(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("model-only experiment must be deterministic")
	}
}
