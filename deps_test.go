package energyroofline

import (
	"os/exec"
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
