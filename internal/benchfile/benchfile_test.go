package benchfile

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trajectory is a file with a baseline, one full entry and one partial
// entry, the shape `-update -scenario single_run` leaves behind.
func trajectory() *File {
	return &File{
		Baseline: &Entry{Date: "2026-01-01", Host: Host{CPU: "base"}, Scenarios: map[string]Metrics{
			"single_run":   {NsPerOp: 200, AllocsPerOp: 2},
			"only_in_base": {NsPerOp: 1000, AllocsPerOp: 10},
		}},
		Entries: []Entry{
			{Date: "2026-01-02", Host: Host{CPU: "a"}, Scenarios: map[string]Metrics{
				"single_run": {NsPerOp: 100, AllocsPerOp: 1},
				"campaign":   {NsPerOp: 1000, AllocsPerOp: 100},
				"batch_eval": {NsPerOp: 50, AllocsPerOp: 0},
			}},
			{Date: "2026-01-03", Host: Host{CPU: "a"}, Scenarios: map[string]Metrics{
				"single_run": {NsPerOp: 80, AllocsPerOp: 1},
			}},
		},
	}
}

func TestCheck(t *testing.T) {
	def := Gate{MaxSlowdown: 1.5, MaxAllocGrowth: 1.10, Ceilings: map[string]int64{"batch_eval": 0}}
	cases := []struct {
		name string
		gate Gate
		got  map[string]Metrics
		want []string // substrings, one per expected failure line, in order
	}{
		{"slowdown under threshold", def,
			map[string]Metrics{"campaign": {NsPerOp: 1499, AllocsPerOp: 100}}, nil},
		{"slowdown over threshold", def,
			map[string]Metrics{"campaign": {NsPerOp: 1501, AllocsPerOp: 100}},
			[]string{"REGRESSION campaign: 1501 ns/op exceeds recorded 1000 ns/op x 1.50"}},
		{"alloc growth over threshold", def,
			map[string]Metrics{"campaign": {NsPerOp: 1000, AllocsPerOp: 111}},
			[]string{"REGRESSION campaign: 111 allocs/op exceeds recorded 100 allocs/op x 1.10"}},
		{"alloc growth under threshold", def,
			map[string]Metrics{"campaign": {NsPerOp: 1000, AllocsPerOp: 110}}, nil},
		{"hard ceiling", Gate{MaxSlowdown: 1.5, MaxAllocGrowth: 100, Ceilings: map[string]int64{"campaign": 50}},
			map[string]Metrics{"campaign": {NsPerOp: 1000, AllocsPerOp: 51}},
			[]string{"REGRESSION campaign: 51 allocs/op, scenario ceiling is 50"}},
		{"ceiling and growth both fire", def,
			map[string]Metrics{"batch_eval": {NsPerOp: 50, AllocsPerOp: 1}},
			[]string{"scenario ceiling is 0", "1 allocs/op exceeds recorded 0 allocs/op"}},
		{"max-slowdown <= 0 disables the time check", Gate{MaxSlowdown: 0, MaxAllocGrowth: 1.10},
			map[string]Metrics{"campaign": {NsPerOp: 1e9, AllocsPerOp: 100}}, nil},
		{"max-alloc-growth <= 0 disables growth and ceilings", Gate{MaxSlowdown: 1.5, MaxAllocGrowth: -1, Ceilings: def.Ceilings},
			map[string]Metrics{"batch_eval": {NsPerOp: 50, AllocsPerOp: 1e6}}, nil},
		{"missing reference fails", def,
			map[string]Metrics{"fmm_replay": {NsPerOp: 1}},
			[]string{"scenario fmm_replay has no recorded reference"}},
		{"missing reference fails with every threshold disabled", Gate{},
			map[string]Metrics{"fmm_replay": {NsPerOp: 1}},
			[]string{"scenario fmm_replay has no recorded reference"}},
		{"baseline fallback passes", def,
			map[string]Metrics{"only_in_base": {NsPerOp: 1500, AllocsPerOp: 11}}, nil},
		{"baseline fallback fails", def,
			map[string]Metrics{"only_in_base": {NsPerOp: 1501, AllocsPerOp: 10}},
			[]string{"REGRESSION only_in_base: 1501 ns/op exceeds recorded 1000 ns/op"}},
		{"newest entry wins over older entries and the baseline", def,
			map[string]Metrics{"single_run": {NsPerOp: 121, AllocsPerOp: 1}},
			[]string{"REGRESSION single_run: 121 ns/op exceeds recorded 80 ns/op"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var names []string
			for name := range c.got {
				names = append(names, name)
			}
			fails := trajectory().Check(names, c.got, c.gate)
			if len(fails) != len(c.want) {
				t.Fatalf("got %d failures %q, want %d", len(fails), fails, len(c.want))
			}
			for i, want := range c.want {
				if !strings.Contains(fails[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, fails[i], want)
				}
			}
		})
	}
}

// TestCheckFindsOlderRecordingsAfterPartialEntry: after an -update that
// ran one scenario, a full -check still finds every other scenario in
// the older entry that records it.
func TestCheckFindsOlderRecordingsAfterPartialEntry(t *testing.T) {
	f := trajectory()
	got := map[string]Metrics{
		"single_run": {NsPerOp: 80, AllocsPerOp: 1},
		"campaign":   {NsPerOp: 1000, AllocsPerOp: 100},
		"batch_eval": {NsPerOp: 50},
	}
	if fails := f.Check([]string{"single_run", "campaign", "batch_eval"}, got, Gate{MaxSlowdown: 1, MaxAllocGrowth: 1}); len(fails) != 0 {
		t.Errorf("full check after a partial entry failed: %q", fails)
	}
	if ref, _ := f.Reference("campaign"); ref.NsPerOp != 1000 {
		t.Errorf("campaign reference = %d ns/op, want the older entry's 1000", ref.NsPerOp)
	}
	if ref, _ := f.Reference("single_run"); ref.NsPerOp != 80 {
		t.Errorf("single_run reference = %d ns/op, want the newest entry's 80", ref.NsPerOp)
	}
}

func TestVsBaseline(t *testing.T) {
	f := trajectory()
	m := f.VsBaseline("single_run", Metrics{NsPerOp: 50, AllocsPerOp: 1})
	if m.SpeedupVsBaseline != 4 || m.AllocReductionVsBaseline != 0.5 {
		t.Errorf("vs baseline 200 ns, 2 allocs: got speedup %v, alloc reduction %v; want 4, 0.5",
			m.SpeedupVsBaseline, m.AllocReductionVsBaseline)
	}
	if m := f.VsBaseline("campaign", Metrics{NsPerOp: 50}); m.SpeedupVsBaseline != 0 {
		t.Errorf("scenario without a baseline got speedup %v", m.SpeedupVsBaseline)
	}
}

// TestCommittedFilesRoundTrip: every committed BENCH file decodes under
// the strict schema, re-encodes byte-identically, and names a host CPU
// on the baseline and on every entry.
func TestCommittedFilesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d BENCH files, want at least 3", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := Load(path, "")
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "out.json")
			if err := f.Save(out); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(path)
			if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
				t.Error("re-encoding differs from the committed bytes")
			}
			if len(f.Entries) == 0 {
				t.Error("no entries")
			}
			entries := f.Entries
			if f.Baseline != nil {
				entries = append([]Entry{*f.Baseline}, entries...)
			}
			for _, e := range entries {
				if e.Host.CPU == "" {
					t.Errorf("entry %s (PR %d) names no host.cpu", e.Date, e.PR)
				}
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"description": "", "entries": [{"date": "2026-01-01", "host": {"cpu": "x"}, "benchmarks": {}}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, ""); err == nil || !strings.Contains(err.Error(), "benchmarks") {
		t.Errorf("Load of a file with a stale key: err = %v, want one naming it", err)
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	valid := `{"description": "d", "entries": []}`
	for _, tail := range []string{"}", "]", " {}"} {
		if err := os.WriteFile(path, []byte(valid+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, ""); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("tail %q: err = %v, want trailing data", tail, err)
		}
	}
}

func TestAppendCreatesFileAndStampsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_new.json")
	f, err := Load(path, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{PR: 7, Note: "n", Scenarios: map[string]Metrics{"s": {NsPerOp: 1}}}
	if err := f.Append(path, e); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if back.Description != "fresh" || len(back.Entries) != 1 {
		t.Fatalf("appended file = %+v", back)
	}
	got := back.Entries[0]
	if got.Date == "" || got.Host.CPU == "" || got.Host.NProc < 1 || got.Host.GOMAXPROCS < 1 || got.Host.Go == "" {
		t.Errorf("entry not stamped with date and host: %+v", got)
	}
	if got.PR != 7 || got.Note != "n" || !reflect.DeepEqual(got.Scenarios, e.Scenarios) {
		t.Errorf("entry fields lost: %+v", got)
	}
}
