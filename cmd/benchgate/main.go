// Command benchgate is the one regression gate of the BENCH_*.json
// trajectory files (internal/benchfile). It reads `go test -bench
// -benchmem` output on stdin, echoes it, and keys each result by its
// innermost benchmark name without the -N GOMAXPROCS suffix
// (BenchmarkCore/single_run-2 records as single_run). -check exits 1 on
// a regression against the newest entry that records each scenario;
// -update appends the run as a new entry:
//
//	go test -run '^$' -bench BenchmarkCore -benchmem . | go run ./cmd/benchgate -file BENCH_core.json -check
//	go test -run '^$' -bench BenchmarkFleet -benchtime 1x -benchmem ./internal/cluster | go run ./cmd/benchgate -file BENCH_cluster.json -update -pr N -note "..."
//
// Besides the time and allocation checks, -check applies hard allocs/op
// ceilings and two speedup floors, keyed by scenario name. Input with
// no result, or with a FAIL, --- FAIL or panic: line, exits 2 and
// records nothing, so a failed run cannot pass as an empty one; run the
// pipe with pipefail as well.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchfile"
)

// allocCeilings are hard allocs/op limits, enforced whatever the file
// records (allocation counts are deterministic, so they hold on any
// hardware).
var allocCeilings = map[string]int64{"batch_eval": 0, "BenchmarkServerEvalWarm": 10}

const (
	// batchEval must be minBatchSpeedup times faster than batchEvalRef,
	// the same sweep as a scalar loop, in the same run: a speedup that
	// does not depend on the host.
	batchEval, batchEvalRef, minBatchSpeedup = "batch_eval", "batch_eval_scalar_ref", 5.0
	// warmEval is the warm /v1/eval path, held to -min-warm-speedup
	// over the file's oldest recording of it (the single-lock server).
	warmEval = "BenchmarkServerEvalWarm"
)

// options are the command's flag values.
type options struct {
	file                                        string
	check, update                               bool
	maxSlowdown, maxAllocGrowth, minWarmSpeedup float64
	pr                                          int
	note                                        string
}

func main() {
	var o options
	flag.StringVar(&o.file, "file", "", "BENCH_*.json trajectory file to check against and record into (required)")
	flag.BoolVar(&o.check, "check", false, "exit 1 when a scenario regresses beyond the thresholds")
	flag.Float64Var(&o.maxSlowdown, "max-slowdown", 1.5, "-check fails when ns/op exceeds recorded*this (<= 0 disables)")
	flag.Float64Var(&o.maxAllocGrowth, "max-alloc-growth", 1.10, "-check fails when allocs/op exceeds recorded*this; <= 0 disables it and the ceilings")
	flag.Float64Var(&o.minWarmSpeedup, "min-warm-speedup", 5, "-check fails when "+warmEval+" is not this many times faster than its oldest entry (<= 0 disables)")
	flag.BoolVar(&o.update, "update", false, "append this run as a new entry in -file")
	flag.IntVar(&o.pr, "pr", 0, "PR number to record with -update")
	flag.StringVar(&o.note, "note", "", "note to record with -update")
	flag.Parse()
	os.Exit(run(o, os.Stdin, os.Stdout, os.Stderr))
}

// run gates the benchmark output read from in and returns the exit
// code: 0 within thresholds, 1 on a regression, 2 on unusable input.
func run(o options, in io.Reader, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	if o.file == "" {
		return fail(errors.New("-file is required"))
	}
	names, got, err := parse(in, stdout)
	if err != nil {
		return fail(err)
	}
	f, err := benchfile.Load(o.file, "Trajectory of go test benchmarks gated by go run ./cmd/benchgate. "+
		"Entries are append-only, one per PR touching the measured path.")
	if err != nil {
		return fail(err)
	}
	var fails []string
	if o.check {
		fails = f.Check(names, got, benchfile.Gate{
			MaxSlowdown: o.maxSlowdown, MaxAllocGrowth: o.maxAllocGrowth, Ceilings: allocCeilings})
		if m, ok := got[batchEval]; ok {
			if speedup := float64(got[batchEvalRef].NsPerOp) / float64(m.NsPerOp); speedup < minBatchSpeedup {
				fails = append(fails, fmt.Sprintf("REGRESSION %s: %.2fx over %s, want >= %.2fx",
					batchEval, speedup, batchEvalRef, minBatchSpeedup))
			}
		}
		if m, ok := got[warmEval]; ok && o.minWarmSpeedup > 0 {
			base := oldestNs(f, warmEval)
			if speedup := float64(base) / float64(m.NsPerOp); base > 0 && speedup < o.minWarmSpeedup {
				fails = append(fails, fmt.Sprintf("REGRESSION %s: %.1fx over the oldest entry (%d ns/op), want >= %.1fx",
					warmEval, speedup, base, o.minWarmSpeedup))
			}
		}
		for _, line := range fails {
			fmt.Fprintln(stderr, "benchgate:", line)
		}
		if len(fails) == 0 {
			fmt.Fprintf(stdout, "benchgate: all %d scenarios within thresholds\n", len(names))
		}
	}
	if o.update {
		for name, m := range got {
			got[name] = f.VsBaseline(name, m)
		}
		if err := f.Append(o.file, benchfile.Entry{PR: o.pr, Note: o.note, Scenarios: got}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "benchgate: wrote %s\n", o.file)
	}
	if len(fails) > 0 {
		return 1
	}
	return 0
}

// parse copies go test -bench output from in to echo and returns the
// scenario names in input order with their metrics. It fails on a
// duplicate scenario, a result without ns/op or allocs/op, no result
// at all, and any line that reports a failed run.
func parse(in io.Reader, echo io.Writer) ([]string, map[string]benchfile.Metrics, error) {
	var names []string
	got := map[string]benchfile.Metrics{}
	var err error
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if err != nil {
			continue // keep echoing, so the log shows the whole failure
		}
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "FAIL") || strings.HasPrefix(t, "--- FAIL") || strings.HasPrefix(t, "panic:") {
			err = fmt.Errorf("the benchmark run failed: %s", t)
			continue
		}
		// A result is "Name[-N] iterations value unit [value unit]...";
		// a name-only line (go test -v) has no iteration count.
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, e := strconv.Atoi(fields[1]); e != nil {
			continue
		}
		name := fields[0][strings.LastIndexByte(fields[0], '/')+1:]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, e := strconv.Atoi(name[i+1:]); e == nil {
				name = name[:i]
			}
		}
		if _, dup := got[name]; dup {
			err = fmt.Errorf("scenario %s appears twice", name)
			continue
		}
		units := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, e := strconv.ParseFloat(fields[i], 64)
			if e != nil {
				err = fmt.Errorf("%s: %v", fields[0], e)
			}
			units[fields[i+1]] = v
		}
		_, hasNs := units["ns/op"]
		_, hasAllocs := units["allocs/op"]
		if err == nil && !(hasNs && hasAllocs) {
			err = fmt.Errorf("%s: no ns/op or allocs/op (run go test with -benchmem)", fields[0])
		}
		names = append(names, name)
		got[name] = benchfile.Metrics{NsPerOp: int64(units["ns/op"]), BytesPerOp: int64(units["B/op"]),
			AllocsPerOp: int64(units["allocs/op"]), SimulatedRPS: units["sim_rps"]}
	}
	if err == nil {
		err = sc.Err()
	}
	if err == nil && len(names) == 0 {
		err = errors.New("no benchmark results on stdin")
	}
	return names, got, err
}

// oldestNs returns ns/op in the oldest entry that records scenario
// name, or 0.
func oldestNs(f *benchfile.File, name string) int64 {
	for _, e := range f.Entries {
		if m, ok := e.Scenarios[name]; ok && m.NsPerOp > 0 {
			return m.NsPerOp
		}
	}
	return 0
}
