package energyroofline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

// TestCommittedArtifactsFresh re-runs the whole experiment registry at
// the default seed and requires the committed artifacts to be what that
// run writes: every figures/*.svg byte for byte, figures/comparisons.json,
// and the EXPERIMENTS.md body after its preamble. PNGs are checked by
// name only, since their zlib stream may change between Go releases.
// Regenerate everything with
//
//	go run ./cmd/experiments -svg figures -png figures -json figures/comparisons.json -md EXPERIMENTS.md
func TestCommittedArtifactsFresh(t *testing.T) {
	root := mustModuleRoot(t)
	fresh := t.TempDir()
	cfg := exp.Config{Seed: exp.DefaultSeed, SVGDir: fresh, PNGDir: fresh}
	reports, err := exp.RunAll(context.Background(), exp.All(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := exp.WriteJSON(&js, reports); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fresh, "comparisons.json"), js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	committedDir := filepath.Join(root, "figures")
	committedNames := map[string]bool{}
	for _, name := range dirNames(t, committedDir) {
		committedNames[name] = true
	}
	for _, name := range dirNames(t, fresh) {
		if !committedNames[name] {
			t.Errorf("figures/%s is missing", name)
			continue
		}
		delete(committedNames, name)
		if filepath.Ext(name) == ".png" {
			continue
		}
		committed, err := os.ReadFile(filepath.Join(committedDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(filepath.Join(fresh, name)); err != nil || !bytes.Equal(committed, b) {
			t.Errorf("figures/%s differs from the default run", name)
		}
	}
	for name := range committedNames {
		t.Errorf("figures/%s is not written by the default run", name)
	}

	var md bytes.Buffer
	if err := exp.WriteMarkdown(&md, reports, ""); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(markdownBody(committed), markdownBody(md.Bytes())) {
		t.Error("EXPERIMENTS.md body differs from the default run")
	}
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// markdownBody strips an EXPERIMENTS.md document down to what follows
// its preamble: the summary line and everything after it.
func markdownBody(doc []byte) []byte {
	if i := bytes.Index(doc, []byte("\n**")); i >= 0 {
		return doc[i:]
	}
	return doc
}
