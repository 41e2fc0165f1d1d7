// Command bench is the repository's one end-to-end benchmark. It drives
// the real rooflined binary over HTTP and the fleet simulator
// (internal/cluster) through the workloads named in BENCHMARK.json,
// checks their outputs, and prints every declared metric by name with
// its unit. BENCHMARK.json at the repository root is the contract: the
// workloads, the end-to-end metrics with the bound by which each may
// worsen, and the per-layer metrics of the traced run.
//
// Usage (from the repository root, or from this directory with go run .):
//
//	bash bench/run.sh -workload eval_zipf -seed 7 -seconds 15 -trace 0
//	go run . -workload all              # every workload, each in a fresh process
//	go run . -workload fleet_open -trace 1
//	go run . -compare DIR_A DIR_B       # medians, quartiles and pairs won
//
// A run prints its host stamp, diagnostics, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. It also
// writes the same result, with the host stamp and diagnostics, to a file
// in -out, and a traced run writes Chrome trace_event JSON there. A run
// whose output checks fail prints correct=false, counts all its
// operations as failed, and exits 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed at which the fleet reports are byte-identical
// to `fleetsim -scenario <name> -json -`.
const defaultSeed = 2026

// runConfig is what one workload run is given.
type runConfig struct {
	workload string  // workload name
	root     string  // repository root, where BENCHMARK.json is
	seed     int64   // input seed
	seconds  float64 // measured time budget
	trace    bool    // traced run: report the per-layer metrics
	outDir   string  // result files and traces
	binDir   string  // where rooflined is built
	tiny     bool    // shrunken inputs, for the package's own tests
}

// outcome is what a workload run measured and checked.
type outcome struct {
	values    map[string]float64 // declared metrics by name
	diag      map[string]float64 // undeclared diagnostics by name
	attempted int64              // operations the run attempted
	failures  []string           // output checks that failed
}

// newOutcome returns an empty outcome.
func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, diag: map[string]float64{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// benchWorkload is one entry of BENCHMARK.json's workloads, implemented.
type benchWorkload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

// workloads lists every implemented workload in BENCHMARK.json order.
var workloads = []benchWorkload{
	{"eval_zipf", func(cfg runConfig) (*outcome, error) { return runHTTP(cfg, &evalZipf) }},
	{"batch_cold", func(cfg runConfig) (*outcome, error) { return runHTTP(cfg, &batchCold) }},
	{"fleet_open", func(cfg runConfig) (*outcome, error) { return runFleet(cfg, "cluster_1m") }},
	{"fleet_closed", func(cfg runConfig) (*outcome, error) { return runFleet(cfg, "closed_1m") }},
}

// hostStamp identifies the machine and code a result was measured on.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

// String renders the stamp as one line.
func (h hostStamp) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Rev)
}

// stampHost reads the host stamp. The revision is "unknown" outside a
// git checkout; git is not consulted then, so it cannot find an
// enclosing repository.
func stampHost(root string) hostStamp {
	h := hostStamp{CPU: runtime.GOOS + "/" + runtime.GOARCH, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Rev: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Rev = strings.TrimSpace(string(out))
		}
	}
	return h
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result file: the result line plus what it was
// measured on and with.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       int                `json:"trace"`
	Started     time.Time          `json:"started"`
	Host        hostStamp          `json:"host"`
	Result      result             `json:"result"`
	Failures    []string           `json:"failures,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
}

// findRoot returns the working directory or its parent, whichever holds
// BENCHMARK.json.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in the working directory or its parent")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "all", "workload to run, or all (each in a fresh process)")
	seed := flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", "", "directory for result files and traces (default .bench_build/results)")
	compare := flag.Bool("compare", false, "compare the result files of two directories: -compare A B")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		log.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		log.Fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two directories")
		}
		worse, err := compareDirs(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		log.Fatal("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "results")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	cfg := runConfig{root: root, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *out,
		binDir: filepath.Join(root, ".bench_build")}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	os.Exit(runOne(spec, *name, cfg))
}

// runAll re-executes the benchmark once per workload, so each workload
// gets a fresh process: peak memory and GC state are its own.
func runAll(cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(cfg.trace)),
			"-out", cfg.outDir)
		cmd.Dir = cfg.root
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("%s: %v", w.name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload in this process and reports it.
func runOne(spec *benchSpec, name string, cfg runConfig) int {
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		log.Printf("unknown workload %q", name)
		return 2
	}
	cfg.workload = name
	rec := record{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: boolInt(cfg.trace),
		Started: time.Now().UTC(), Host: stampHost(cfg.root)}
	fmt.Printf("bench %s seed=%d seconds=%g trace=%d\nhost: %s\n", name, cfg.seed, cfg.seconds, rec.Trace, rec.Host)
	o, err := w.run(cfg)
	if err != nil {
		log.Printf("%s: %v", name, err)
		return 1
	}
	metrics, err := spec.emit(cfg.trace, o.values)
	if err != nil {
		log.Printf("%s: %v", name, err)
		return 1
	}
	rec.Result = result{Correct: len(o.failures) == 0, Attempted: o.attempted, Metrics: metrics}
	if !rec.Result.Correct {
		rec.Result.Failed = o.attempted
	}
	rec.Failures, rec.Diagnostics = o.failures, o.diag
	printReport(&rec)
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err == nil {
		file := fmt.Sprintf("%s-t%d-s%d-%d.json", name, rec.Trace, cfg.seed, rec.Started.UnixNano())
		err = os.WriteFile(filepath.Join(cfg.outDir, file), append(data, '\n'), 0o644)
	}
	if err != nil {
		log.Printf("%s: writing result file: %v", name, err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// printReport prints the failed checks, the diagnostics and the metrics
// as a human-readable block.
func printReport(rec *record) {
	for _, f := range rec.Failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	for _, name := range sortedKeys(rec.Diagnostics) {
		fmt.Printf("  diag   %-36s %.6g\n", name, rec.Diagnostics[name])
	}
	for _, name := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[name]
		fmt.Printf("  metric %-36s %.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%t\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// boolInt maps false to 0 and true to 1.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
