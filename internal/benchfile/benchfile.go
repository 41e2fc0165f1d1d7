// Package benchfile is the one reader and writer of the repository's
// BENCH_*.json trajectory files and the one regression gate over them.
// cmd/benchgate records go test benchmark results into, and checks
// them against, files of this schema.
//
// A file holds an optional fixed baseline and an append-only list of
// entries, oldest first. The baseline and every entry name the host they
// were measured on: time numbers compare only within one host, while
// allocation counts compare everywhere.
package benchfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/strictjson"
)

// File is the BENCH_*.json schema.
type File struct {
	// Description explains the file's purpose and append-only policy.
	Description string `json:"description"`
	// Baseline is the fixed pre-optimization reference speedups are
	// computed against. It is never rewritten.
	Baseline *Entry `json:"baseline,omitempty"`
	// Entries is the append-only trajectory, oldest first.
	Entries []Entry `json:"entries"`
}

// Entry is one recorded run: scenario measurements and, in entries
// recorded before the HTTP load mode was retired, a load report.
type Entry struct {
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// PR is the pull request the entry belongs to.
	PR int `json:"pr,omitempty"`
	// Note describes what changed.
	Note string `json:"note,omitempty"`
	// Host is the machine the run was measured on.
	Host Host `json:"host"`
	// Scenarios maps scenario name to its measured metrics.
	Scenarios map[string]Metrics `json:"scenarios,omitempty"`
	// Load is the closed-loop HTTP load report of a past loadgen -load
	// run. Nothing writes it any more; it is kept so the recorded
	// history still decodes strictly.
	Load *LoadReport `json:"load,omitempty"`
}

// Host identifies a measuring machine, with the field names of the
// benchmark module's host stamp. Fields a migrated entry never recorded
// stay empty.
type Host struct {
	// CPU is the processor model name.
	CPU string `json:"cpu"`
	// NProc is the number of logical CPUs.
	NProc int `json:"nproc,omitempty"`
	// GOMAXPROCS is the Go scheduler's processor limit during the run.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Go is the Go toolchain version.
	Go string `json:"go,omitempty"`
}

// Metrics is one scenario's measured cost per operation: one testing.B
// iteration, which for the fleet benchmark is one full simulation.
type Metrics struct {
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SpeedupVsBaseline is baseline ns/op divided by this run's ns/op.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// AllocReductionVsBaseline is the fraction of baseline allocs/op
	// eliminated (0.9 = 90% fewer allocations).
	AllocReductionVsBaseline float64 `json:"alloc_reduction_vs_baseline,omitempty"`
	// SimulatedRPS is simulated requests per wall second, the fleet
	// simulator's own throughput.
	SimulatedRPS float64 `json:"simulated_rps,omitempty"`
}

// LoadReport is one closed-loop HTTP load run's results, as the retired
// loadgen -load mode recorded them in BENCH_server.json.
type LoadReport struct {
	// Clients is the closed-loop client population.
	Clients int `json:"clients"`
	// Requests is the number of requests completed.
	Requests int `json:"requests"`
	// Keys is the content-key universe size.
	Keys int `json:"keys"`
	// AchievedRPS is completed requests divided by wall time.
	AchievedRPS float64 `json:"achieved_rps"`
	// P50Micros is the client-observed median latency in microseconds.
	P50Micros float64 `json:"p50_us"`
	// P99Micros is the 99th-percentile latency in microseconds.
	P99Micros float64 `json:"p99_us"`
	// P999Micros is the 99.9th-percentile latency in microseconds.
	P999Micros float64 `json:"p999_us"`
	// HitRate is the fraction of requests served from the cache.
	HitRate float64 `json:"hit_rate"`
	// CoalesceRate is the fraction of requests that joined another
	// request's in-flight computation.
	CoalesceRate float64 `json:"coalesce_rate"`
	// JoulesPerRequest is the roofline-priced energy bill per request:
	// capped kernel energy for every miss plus π0 × wall time, divided
	// by the request count.
	JoulesPerRequest float64 `json:"joules_per_request"`
}

// Load reads the file at path, rejecting unknown fields and trailing
// data. A missing file yields an empty one with the given description,
// so the first append creates it.
func Load(path, description string) (*File, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &File{Description: description}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := strictjson.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// Save writes f to path as indented JSON.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Append stamps e with today's date and this host, appends it, and
// saves f to path.
func (f *File) Append(path string, e Entry) error {
	e.Date = time.Now().Format("2006-01-02")
	e.Host = ThisHost()
	f.Entries = append(f.Entries, e)
	return f.Save(path)
}

// ThisHost stamps the running machine. The CPU falls back to GOOS/GOARCH
// where /proc/cpuinfo names no model.
func ThisHost() Host {
	h := Host{CPU: runtime.GOOS + "/" + runtime.GOARCH, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// VsBaseline fills m's speedup and allocation reduction against the
// baseline's recording of scenario name, when there is one.
func (f *File) VsBaseline(name string, m Metrics) Metrics {
	if f.Baseline == nil {
		return m
	}
	base, ok := f.Baseline.Scenarios[name]
	if !ok || base.NsPerOp <= 0 || m.NsPerOp <= 0 {
		return m
	}
	m.SpeedupVsBaseline = float64(base.NsPerOp) / float64(m.NsPerOp)
	if base.AllocsPerOp > 0 {
		m.AllocReductionVsBaseline = 1 - float64(m.AllocsPerOp)/float64(base.AllocsPerOp)
	}
	return m
}

// Reference returns what -check compares scenario name against: its
// metrics in the newest entry that records it, else in the baseline.
func (f *File) Reference(name string) (Metrics, bool) {
	for i := len(f.Entries) - 1; i >= 0; i-- {
		if m, ok := f.Entries[i].Scenarios[name]; ok {
			return m, true
		}
	}
	if f.Baseline == nil {
		return Metrics{}, false
	}
	m, ok := f.Baseline.Scenarios[name]
	return m, ok
}

// Gate holds -check's thresholds. Each is disabled at ≤ 0.
type Gate struct {
	// MaxSlowdown fails a scenario whose ns/op exceeds its reference's
	// times this.
	MaxSlowdown float64
	// MaxAllocGrowth fails a scenario whose allocs/op exceeds its
	// reference's times this. At ≤ 0 it disables Ceilings too: the race
	// detector, the reason to turn it off, inflates allocation counts.
	MaxAllocGrowth float64
	// Ceilings are hard allocs/op limits by scenario name, enforced
	// whatever the reference records.
	Ceilings map[string]int64
}

// Check compares each scenario in names with its reference in f and its
// ceiling, and returns one line per failure, in the order of names. A
// scenario with no reference fails. No lines means the run is within
// thresholds.
func (f *File) Check(names []string, got map[string]Metrics, g Gate) []string {
	var fails []string
	for _, name := range names {
		m := got[name]
		if c, capped := g.Ceilings[name]; capped && g.MaxAllocGrowth > 0 && m.AllocsPerOp > c {
			fails = append(fails, fmt.Sprintf("REGRESSION %s: %d allocs/op, scenario ceiling is %d",
				name, m.AllocsPerOp, c))
		}
		ref, ok := f.Reference(name)
		if !ok {
			fails = append(fails, fmt.Sprintf("scenario %s has no recorded reference", name))
			continue
		}
		if g.MaxSlowdown > 0 && ref.NsPerOp > 0 && float64(m.NsPerOp) > float64(ref.NsPerOp)*g.MaxSlowdown {
			fails = append(fails, fmt.Sprintf("REGRESSION %s: %d ns/op exceeds recorded %d ns/op x %.2f",
				name, m.NsPerOp, ref.NsPerOp, g.MaxSlowdown))
		}
		if g.MaxAllocGrowth > 0 && float64(m.AllocsPerOp) > float64(ref.AllocsPerOp)*g.MaxAllocGrowth {
			fails = append(fails, fmt.Sprintf("REGRESSION %s: %d allocs/op exceeds recorded %d allocs/op x %.2f",
				name, m.AllocsPerOp, ref.AllocsPerOp, g.MaxAllocGrowth))
		}
	}
	return fails
}
