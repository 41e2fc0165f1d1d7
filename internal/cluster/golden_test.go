package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden fleet report:
//
//	go test ./internal/cluster/ -run TestFleetReportGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenPath is the pinned fleet report for the smoke scenario.
const goldenPath = "testdata/fleet_golden.json"

// TestFleetReportGolden is the determinism harness's anchor: the smoke
// scenario's full report must be byte-identical at every worker count
// AND across commits — any change to the workload generators, the
// event loop, the policies, the cache, the roofline pricing, or the
// report encoding shows up as a golden diff that has to be reviewed
// and re-pinned deliberately.
func TestFleetReportGolden(t *testing.T) {
	sc, ok := Scenarios()["smoke"]
	if !ok {
		t.Fatal("catalog lost the smoke scenario")
	}
	var reports [][]byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := RunScenario(context.Background(), sc, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatalf("workers=%d: Marshal: %v", workers, err)
		}
		reports = append(reports, data)
	}
	for i, data := range reports[1:] {
		if !bytes.Equal(reports[0], data) {
			t.Fatalf("report at workers=%d differs from workers=1", []int{4, 16}[i])
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, reports[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(reports[0]))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, reports[0]) {
		t.Fatalf("fleet report drifted from %s\nrun `go test ./internal/cluster/ -run TestFleetReportGolden -update` after reviewing the change\ngot %d bytes, want %d", goldenPath, len(reports[0]), len(want))
	}
}

// reportDigests1M are the SHA-256 sums of the cluster_1m and closed_1m
// reports at the catalog's default seed: the bytes
// `fleetsim -scenario <name> -json -` prints, and the digests the
// benchmark harness (bench/fleet.go) checks its default-seed runs
// against.
var reportDigests1M = map[string]string{
	"cluster_1m": "37260780f473bd25bd33727bd3f160627d327917e56bbf25c31d2fdbfea5c7d9",
	"closed_1m":  "0e2b50a1b439b9c297e6783329289c3261af09292d72767ae1c8ffe191ce9457",
}

// TestReportDigests1M pins the two benchmark scenarios' full reports
// byte for byte. The smoke golden's energy-aware cell never evicts;
// here every cell does (8 caches of 4,096 entries under a 50k-key
// universe), so an event-loop change that is exact only while caches
// keep everything fails here and not only in the benchmark.
func TestReportDigests1M(t *testing.T) {
	if raceEnabled {
		t.Skip("two 1M-request scenarios take minutes under the race detector")
	}
	for name, want := range reportDigests1M {
		rep, err := RunScenario(context.Background(), Scenarios()[name], Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: report SHA-256 %x, want %s", name, sum, want)
		}
	}
}
