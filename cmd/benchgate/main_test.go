package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchfile"
)

// gate runs benchgate on input against path with the default
// thresholds, changed by opt, and returns the exit code and everything
// it printed.
func gate(t *testing.T, path, input string, opt func(*options)) (int, string) {
	t.Helper()
	o := options{file: path, check: true, maxSlowdown: 1.5, maxAllocGrowth: 1.10, minWarmSpeedup: 5}
	if opt != nil {
		opt(&o)
	}
	var out bytes.Buffer
	code := run(o, strings.NewReader(input), &out, &out)
	return code, out.String()
}

// result renders one go test -bench -benchmem result line.
func result(name string, ns, allocs int64) string {
	return fmt.Sprintf("%s-2   \t    1000\t%10d ns/op\t     128 B/op\t%8d allocs/op\n", name, ns, allocs)
}

func TestParse(t *testing.T) {
	input := "goos: linux\npkg: repro\nBenchmarkCore\n" +
		"BenchmarkCore/batch_eval-2         \t   10000\t       142.2 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkFleet/closed_1m           \t       1\t2688190512 ns/op\t   1560270 sim_rps\t200109504 B/op\t 3648 allocs/op\n" +
		result("BenchmarkServerEvalWarm", 2071, 2) + "PASS\nok  \trepro\t12.3s\n"
	var echo bytes.Buffer
	names, got, err := parse(strings.NewReader(input), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != input {
		t.Errorf("echo differs from the input:\n%s", echo.String())
	}
	if want := []string{"batch_eval", "closed_1m", "BenchmarkServerEvalWarm"}; !reflect.DeepEqual(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
	want := map[string]benchfile.Metrics{
		"batch_eval":              {NsPerOp: 142},
		"closed_1m":               {NsPerOp: 2688190512, BytesPerOp: 200109504, AllocsPerOp: 3648, SimulatedRPS: 1560270},
		"BenchmarkServerEvalWarm": {NsPerOp: 2071, BytesPerOp: 128, AllocsPerOp: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

// TestUnusableInput pins exit 2 for input a gate must not pass: a run
// that failed or measured nothing, or results that cannot be keyed.
func TestUnusableInput(t *testing.T) {
	ok := result("BenchmarkServerEvalWarm", 2071, 2)
	for _, c := range []struct{ name, input, want string }{
		{"empty", "", "no benchmark results"},
		{"no result line", "PASS\nok  \trepro/internal/server\t0.1s\n", "no benchmark results"},
		{"FAIL", ok + "FAIL\trepro/internal/server\t0.1s\n", "run failed"},
		{"--- FAIL", ok + "--- FAIL: BenchmarkServerEvalCold\n", "run failed"},
		{"nested --- FAIL", ok + "    --- FAIL: BenchmarkCore/campaign-2\n", "run failed"},
		{"panic", ok + "panic: runtime error: index out of range\n", "run failed"},
		{"duplicate", ok + ok, "scenario BenchmarkServerEvalWarm appears twice"},
		{"no allocs/op", "BenchmarkServerEvalWarm-2 \t 1000\t 2071 ns/op\n", "-benchmem"},
		{"NaN", "BenchmarkCore/single_run-2 100 NaN ns/op 144 B/op 1 allocs/op\n", "NaN ns/op is not in [0, 2^63)"},
		{"negative time", "BenchmarkCore/single_run-2 100 -5 ns/op 144 B/op 1 allocs/op\n", "-5 ns/op is not in"},
		{"beyond int64", "BenchmarkCore/single_run-2 100 1e30 ns/op 144 B/op 1 allocs/op\n", "1e30 ns/op is not in"},
		{"negative allocs", "BenchmarkCore/single_run-2 100 130 ns/op 144 B/op -3 allocs/op\n", "-3 allocs/op is not in"},
		{"-N after the suffix", result("BenchmarkCore/single_run-4", 130, 1), "scenario single_run-4 ends in -N"},
		{"no -file", ok, "-file is required"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			if c.name == "no -file" {
				path = ""
			}
			code, out := gate(t, path, c.input, func(o *options) { o.update = true })
			if code != 2 || !strings.Contains(out, c.want) {
				t.Errorf("exit %d, want 2 with %q:\n%s", code, c.want, out)
			}
			if _, err := os.Stat(path); err == nil {
				t.Error("unusable input was recorded")
			}
		})
	}
}

// FuzzParseBench feeds parse arbitrary text: whatever it accepts keys
// each result by a unique name with no -N suffix, and records no
// negative or NaN metric.
func FuzzParseBench(f *testing.F) {
	f.Add(result("BenchmarkCore/single_run", 130, 1) + result("BenchmarkServerEvalWarm", 2071, 2))
	f.Add("BenchmarkFleet/closed_1m \t 1\t2688190512 ns/op\t 1560270 sim_rps\t200109504 B/op\t 3648 allocs/op\n")
	f.Add("BenchmarkCore/single_run-2 100 NaN ns/op 144 B/op 1 allocs/op\n")
	f.Add("BenchmarkCore/single_run-2 100 1e30 ns/op 144 B/op -3 allocs/op\n")
	f.Add(result("BenchmarkA/x", 1, 1) + result("BenchmarkB/x-2", 1, 1))
	f.Fuzz(func(t *testing.T, in string) {
		names, got, err := parse(strings.NewReader(in), io.Discard)
		if err != nil {
			return
		}
		if len(names) == 0 || len(names) != len(got) {
			t.Fatalf("%d names for %d results", len(names), len(got))
		}
		for _, name := range names {
			if _, ok := cutCPUSuffix(name); ok {
				t.Errorf("name %q keeps a -N suffix", name)
			}
			m := got[name]
			if m.NsPerOp < 0 || m.BytesPerOp < 0 || m.AllocsPerOp < 0 || !(m.SimulatedRPS >= 0) {
				t.Errorf("%s: metrics %+v", name, m)
			}
		}
	})
}

// TestRules pins every check -check applies, each failing alone.
func TestRules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	f := &benchfile.File{Entries: []benchfile.Entry{
		{Scenarios: map[string]benchfile.Metrics{warmEval: {NsPerOp: 1000, AllocsPerOp: 2}}},
		{Scenarios: map[string]benchfile.Metrics{
			warmEval:     {NsPerOp: 150, AllocsPerOp: 2},
			batchEval:    {NsPerOp: 100},
			batchEvalRef: {NsPerOp: 1000},
			"cluster_1m": {NsPerOp: 1e9, AllocsPerOp: 3000},
		}},
	}}
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	core := func(batch, ref int64) string {
		return result("BenchmarkCore/"+batchEval, batch, 0) + result("BenchmarkCore/"+batchEvalRef, ref, 0)
	}
	for _, c := range []struct {
		name, input string
		opt         func(*options)
		code        int
		want        string
	}{
		{"within thresholds", core(100, 1000) + result(warmEval, 150, 2) + result("BenchmarkFleet/cluster_1m", 1e9, 3300), nil,
			0, "all 4 scenarios within thresholds"},
		{"slowdown", result(warmEval, 200, 2), func(o *options) { o.maxSlowdown = 1.2 },
			1, "REGRESSION BenchmarkServerEvalWarm: 200 ns/op exceeds recorded 150 ns/op x 1.20"},
		{"alloc growth", result("BenchmarkFleet/cluster_1m", 1e9, 3301), nil,
			1, "REGRESSION cluster_1m: 3301 allocs/op exceeds recorded 3000 allocs/op x 1.10"},
		{"ceiling", result(warmEval, 150, 11), func(o *options) { o.maxAllocGrowth = 100 },
			1, "REGRESSION BenchmarkServerEvalWarm: 11 allocs/op, scenario ceiling is 10"},
		{"5x over the scalar reference", core(100, 499), nil,
			1, "REGRESSION batch_eval: 4.99x over batch_eval_scalar_ref, want >= 5.00x"},
		{"scalar reference missing", result("BenchmarkCore/"+batchEval, 100, 0), nil,
			1, "REGRESSION batch_eval: 0.00x over batch_eval_scalar_ref"},
		{"warm floor", result(warmEval, 201, 2), nil,
			1, "REGRESSION BenchmarkServerEvalWarm: 5.0x over the oldest entry (1000 ns/op), want >= 5.0x"},
		{"warm floor disabled", result(warmEval, 201, 2), func(o *options) { o.minWarmSpeedup = 0 },
			0, "within thresholds"},
		{"no reference", result("BenchmarkServerEvalWarmHTTP", 1, 0), func(o *options) { *o = options{file: o.file, check: true} },
			1, "scenario BenchmarkServerEvalWarmHTTP has no recorded reference"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out := gate(t, path, c.input, c.opt)
			if code != c.code || !strings.Contains(out, c.want) {
				t.Errorf("exit %d, want %d with %q:\n%s", code, c.code, c.want, out)
			}
		})
	}
}

// TestCommittedFiles runs each committed BENCH file's own newest
// references back through the gate: at the default thresholds, every
// rule holds for what the file records.
func TestCommittedFiles(t *testing.T) {
	for _, name := range []string{"BENCH_core.json", "BENCH_server.json", "BENCH_cluster.json"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", name)
			f, err := benchfile.Load(path, "")
			if err != nil {
				t.Fatal(err)
			}
			var input strings.Builder
			for scenario := range f.Entries[len(f.Entries)-1].Scenarios {
				m, _ := f.Reference(scenario)
				input.WriteString(result("BenchmarkX/"+scenario, m.NsPerOp, m.AllocsPerOp))
			}
			if code, out := gate(t, path, input.String(), nil); code != 0 {
				t.Errorf("exit %d, want 0:\n%s", code, out)
			}
		})
	}
}

// TestUpdateAppendsOneEntry checks that -update appends this run, with
// a host and speedups against the baseline, and leaves every earlier
// byte of the file as it was.
func TestUpdateAppendsOneEntry(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_core.json")
	before, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	input := result("BenchmarkCore/single_run", 39, 1) + result("BenchmarkCore/campaign", 2000000, 700)
	if code, out := gate(t, path, input, func(o *options) { o.check, o.update, o.pr, o.note = false, true, 99, "n" }); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if keep := bytes.TrimSuffix(before, []byte("\n  ]\n}\n")); len(keep) == len(before) || !bytes.HasPrefix(after, keep) {
		t.Error("-update rewrote earlier entries")
	}
	old, _ := benchfile.Load(committed, "")
	f, err := benchfile.Load(path, "")
	if err != nil || len(f.Entries) != len(old.Entries)+1 {
		t.Fatalf("want one more entry than the committed file: %v", err)
	}
	e := f.Entries[len(f.Entries)-1]
	speedup := float64(old.Baseline.Scenarios["single_run"].NsPerOp) / 39
	if e.PR != 99 || e.Note != "n" || e.Host.CPU == "" || e.Host.GOMAXPROCS == 0 || len(e.Scenarios) != 2 ||
		e.Scenarios["single_run"].SpeedupVsBaseline != speedup {
		t.Errorf("appended entry %+v", e)
	}
}

// TestGoTestPipe gates real go test output, so the parser follows the
// toolchain's format rather than this file's canned lines.
func TestGoTestPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test -bench")
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "BenchmarkServerEvalWarm$", "-benchtime", "2000x", "-benchmem", "./internal/server")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go test: %v\n%s", err, out)
	}
	code, log := gate(t, filepath.Join("..", "..", "BENCH_server.json"), string(out), func(o *options) { o.maxSlowdown, o.minWarmSpeedup = 0, 0 })
	if code != 0 || !strings.Contains(log, "all 1 scenarios within thresholds") {
		t.Errorf("exit %d, want 0 gating one scenario:\n%s", code, log)
	}
}
