package energyroofline

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goList runs `go list` with args from the module root and returns its
// output lines.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = mustModuleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}

// TestFleetsimDependencies guards the dependency direction around the
// shared result cache: the fleet simulator links the cache core
// (internal/rescache) but not the HTTP server, anything only the server
// needs, or the benchmark gate's file format, and the core is a leaf
// over internal/stats that takes no lock. The simulator prices with
// the closed forms of internal/core, so it links neither the model
// registry nor the measurement stack behind the blackbox fit.
func TestFleetsimDependencies(t *testing.T) {
	deps := map[string]bool{}
	for _, p := range goList(t, "-deps", "./cmd/fleetsim") {
		deps[p] = true
	}
	for _, banned := range []string{
		"repro/internal/server", "repro/internal/campaign", "repro/internal/metrics", "repro/internal/benchfile", "net/http",
		"repro/internal/model", "repro/internal/sim", "repro/internal/microbench",
	} {
		if deps[banned] {
			t.Errorf("cmd/fleetsim links %s", banned)
		}
	}
	for _, p := range goList(t, "-deps", "./internal/rescache") {
		if strings.HasPrefix(p, "repro/") && p != "repro/internal/rescache" && p != "repro/internal/stats" {
			t.Errorf("internal/rescache depends on %s; it may depend only on internal/stats", p)
		}
	}
	for _, p := range goList(t, "-f", `{{join .Imports " "}}`, "./internal/rescache") {
		if p == "sync" || p == "sync/atomic" {
			t.Errorf("internal/rescache imports %s; its cache is unsynchronised by design", p)
		}
	}
}

// TestBinaryBudgets pins what each binary costs in module packages
// (repro/ packages in `go list -deps`, so the count does not move with
// the toolchain's standard library) and in flags (as `-h` lists them).
// Growth, or a new binary, is then one reviewed edit of this table.
func TestBinaryBudgets(t *testing.T) {
	budgets := []struct {
		name        string
		pkgs, flags int
	}{
		{"benchgate", 3, 8},
		{"campaign", 14, 7},
		{"cyclesim", 12, 7},
		{"experiments", 23, 9},
		{"fleetsim", 11, 8},
		{"roofline", 6, 10},
		{"rooflined", 17, 8},
	}
	if cmds := goList(t, "./cmd/..."); len(cmds) != len(budgets) {
		t.Errorf("cmd/ holds %d binaries, the budget table %d: %v", len(cmds), len(budgets), cmds)
	}
	for _, b := range budgets {
		pkgs := 0
		for _, p := range goList(t, "-deps", "./cmd/"+b.name) {
			if strings.HasPrefix(p, "repro/") {
				pkgs++
			}
		}
		if pkgs != b.pkgs {
			t.Errorf("%s links %d module packages, budget %d", b.name, pkgs, b.pkgs)
		}
	}
	if testing.Short() {
		t.Skip("flag counts build every binary")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	for _, b := range budgets {
		out, err := exec.Command(filepath.Join(dir, b.name), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v\n%s", b.name, err, out)
			continue
		}
		flags := 0
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  -") {
				flags++
			}
		}
		if flags != b.flags {
			t.Errorf("%s has %d flags, budget %d", b.name, flags, b.flags)
		}
	}
}
