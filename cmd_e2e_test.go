package energyroofline

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = mustModuleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestExperimentsBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "experiments")

	// -list names every canonical experiment.
	list := runBin(t, bin, "-list")
	for _, id := range []string{"tableII", "fig4a", "fmmu", "racetohalt", "dvfs", "algs"} {
		if !strings.Contains(list, id) {
			t.Errorf("-list missing %q", id)
		}
	}

	// A model-only experiment runs and declares success.
	out := runBin(t, bin, "-run", "tableII,fig2b", "-fast")
	if !strings.Contains(out, "all tolerance-checked comparisons matched the paper") {
		t.Errorf("success line missing:\n%s", out)
	}
	if !strings.Contains(out, "Bτ (flop/byte)") {
		t.Error("tableII comparisons missing")
	}

	// Unknown IDs are rejected with a usable message.
	cmd := exec.Command(bin, "-run", "nonsense")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	} else if !strings.Contains(string(out), "unknown experiment") {
		t.Errorf("unhelpful error: %s", out)
	}

	// SVG emission.
	svgDir := filepath.Join(dir, "figs")
	runBin(t, bin, "-run", "fig2a", "-svg", svgDir)
	if _, err := os.Stat(filepath.Join(svgDir, "fig2a.svg")); err != nil {
		t.Errorf("fig2a.svg not written: %v", err)
	}

	// JSON artifact + concurrent workers together.
	jsonPath := filepath.Join(dir, "cmp.json")
	runBin(t, bin, "-run", "tableII,fig2b,racetohalt", "-fast", "-workers", "3", "-json", jsonPath)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "tableII"`, `"deviations": 0`, `"ok": true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON artifact missing %q", want)
		}
	}

	// The studies write one figure per DVFS curve and per scorecard
	// pair, plus the race-idle and dispatch figures — and nothing else.
	studyDir := filepath.Join(dir, "study")
	runBin(t, bin, "-fast", "-run", "scorecard,dvfs-optfreq,dvfs-raceidle,dvfs-dispatch", "-svg", studyDir)
	want := []string{"dvfs_dispatch.svg", "dvfs_raceidle.svg"}
	for _, prec := range []string{"double", "single"} {
		for _, m := range []string{"gtx580", "gtx580-4sm", "gtx580-8sm", "i7-950"} {
			want = append(want, "dvfs_optfreq_"+m+"_"+prec+".svg")
		}
		for _, m := range []string{"fermi", "future", "gtx580", "i7-950"} {
			want = append(want, "scorecard_"+m+"_"+prec+"_energy.svg")
		}
	}
	sort.Strings(want)
	entries, err := os.ReadDir(studyDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("study figures:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	// Table IV's eq. (9) fit for both measured machines.
	t.Run("tableIV", func(t *testing.T) {
		out := runBin(t, bin, "-fast", "-run", "tableIV")
		for _, m := range []string{"NVIDIA GTX 580", "Intel Core i7-950"} {
			for _, coef := range []string{"εs (pJ/flop)", "εd (pJ/flop)", "εmem (pJ/byte)", "π0 (W)"} {
				if !strings.Contains(out, "\n"+m+" "+coef) {
					t.Errorf("tableIV missing the %s %s row", m, coef)
				}
			}
		}
	})

	// The §V-C FMM study's report, with -trace reaching inside the study.
	t.Run("fmmu", func(t *testing.T) {
		tracePath := filepath.Join(dir, "fmmu-trace.json")
		out := runBin(t, bin, "-fast", "-run", "fmmu", "-trace", tracePath)
		for _, want := range []string{
			"fitted cache energy (pJ/B)                              187",
			"refined median relative error",
			"variant                         eq2 err  refined err     I (fl/B)",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		spans := map[string]bool{}
		for _, ev := range tr.TraceEvents {
			spans[ev.Name] = true
		}
		for _, name := range []string{"exp.fmmu", "fmm.study", "fmm.tree", "fmm.cache_replay", "fmm.fit"} {
			if !spans[name] {
				t.Errorf("trace has no %s span (spans: %v)", name, spans)
			}
		}
	})
}

func TestRooflineBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "roofline")

	out := runBin(t, bin, "-machine", "gtx580", "-prec", "double")
	for _, want := range []string{"NVIDIA GTX 580", "Bτ = 1.03", "race-to-halt effective: true", "GFLOP/J"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Detailed single-intensity analysis, in the capped region.
	out = runBin(t, bin, "-machine", "gtx580", "-prec", "single", "-intensity", "8")
	for _, want := range []string{"compute-bound", "average power", "power cap", "ACTIVE"} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis missing %q:\n%s", want, out)
		}
	}

	// Chart mode.
	out = runBin(t, bin, "-machine", "fermi", "-chart")
	if !strings.Contains(out, "arch line (energy)") {
		t.Error("chart legend missing")
	}

	// Compare mode.
	out = runBin(t, bin, "-compare")
	for _, want := range []string{"catalog comparison", "gtx580", "future", "greenest"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q", want)
		}
	}

	// Chart file emission.
	svgPath := filepath.Join(dir, "chart.svg")
	runBin(t, bin, "-machine", "fermi", "-svgfile", svgPath)
	if data, err := os.ReadFile(svgPath); err != nil || !strings.Contains(string(data), "<svg") {
		t.Errorf("svg file bad: %v", err)
	}

	// JSON round trip: dump a machine, load it back.
	m := GTX580()
	data, err := m.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runBin(t, bin, "-json", path)
	if !strings.Contains(out, "NVIDIA GTX 580") {
		t.Error("JSON-loaded machine not used")
	}

	// Bad flags exit non-zero.
	if out, err := exec.Command(bin, "-machine", "cray1").CombinedOutput(); err == nil {
		t.Errorf("unknown machine accepted:\n%s", out)
	}
	if out, err := exec.Command(bin, "-prec", "half").CombinedOutput(); err == nil {
		t.Errorf("unknown precision accepted:\n%s", out)
	}
	if out, err := exec.Command(bin, "-compare", "-prec", "half").CombinedOutput(); err == nil {
		t.Errorf("unknown precision accepted by -compare:\n%s", out)
	}
}

func TestCyclesimBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bin := buildCmd(t, t.TempDir(), "cyclesim")
	out := runBin(t, bin, "-core", "fermi", "-fmas", "32", "-sweep")
	for _, want := range []string{"rooflines", "latency", "issue", "window"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	out = runBin(t, bin, "-core", "nehalem", "-fmas", "1", "-loads", "8", "-prec", "double")
	if !strings.Contains(out, "bandwidth-bound") {
		t.Errorf("load-heavy DP kernel should be bandwidth-bound:\n%s", out)
	}
	if out, err := exec.Command(bin, "-core", "cray").CombinedOutput(); err == nil {
		t.Errorf("unknown core accepted:\n%s", out)
	}
	if out, err := exec.Command(bin, "-prec", "half").CombinedOutput(); err == nil {
		t.Errorf("unknown precision accepted:\n%s", out)
	}
}

func TestCampaignBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "campaign")

	// Custom config + fitted-machine output, small sizes.
	cfgPath := filepath.Join(dir, "cfg.json")
	cfg := `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,
		"points":7,"reps":10,"volume_bytes":67108864,"seed":5}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	out := runBin(t, bin, "-config", cfgPath, "-out", outDir)
	for _, want := range []string{"NVIDIA GTX 580", "εmem", "race-to-halt", "wrote"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The fitted machine JSON loads back through the roofline tool.
	fitted := filepath.Join(outDir, "gtx580-fitted.json")
	if _, err := os.Stat(fitted); err != nil {
		t.Fatal(err)
	}
	roofBin := buildCmd(t, dir, "roofline")
	if roof := runBin(t, roofBin, "-json", fitted); !strings.Contains(roof, "(fitted)") {
		t.Errorf("fitted machine not loadable:\n%s", roof)
	}

	// The config file's seed holds unless -seed is passed.
	if !strings.Contains(out, "seed 5\n") {
		t.Errorf("config seed 5 not applied:\n%s", out)
	}
	if flagged := runBin(t, bin, "-config", cfgPath, "-seed", "5"); withoutWrote(out) != flagged {
		t.Errorf("config with seed 5 differs from -seed 5:\n%s\nvs\n%s", out, flagged)
	}

	// So do its use_powermon and reps: -powermon=false switches the
	// monitor off, and a non-positive -reps fails the merged config's
	// validation instead of being dropped.
	pmPath := filepath.Join(dir, "pm.json")
	pmCfg := strings.Replace(cfg, `"seed":5}`, `"seed":5,"use_powermon":true}`, 1)
	if err := os.WriteFile(pmPath, []byte(pmCfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if runBin(t, bin, "-config", pmPath) == withoutWrote(out) {
		t.Fatal("use_powermon did not change the campaign output")
	}
	if off := runBin(t, bin, "-config", pmPath, "-powermon=false"); off != withoutWrote(out) {
		t.Errorf("-powermon=false did not switch off the config's use_powermon:\n%s\nvs\n%s", off, out)
	}
	for _, reps := range []string{"-3", "0"} {
		msg, err := exec.Command(bin, "-config", cfgPath, "-reps", reps).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), "campaign: reps must be >= 1") {
			t.Errorf("-reps %s: exit %v, output:\n%s\nwant exit 2 with \"campaign: reps must be >= 1\"", reps, err, msg)
		}
	}

	// Bad config rejected, behind one "campaign:" prefix.
	if err := os.WriteFile(cfgPath, []byte(`{"machines":["nope"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := exec.Command(bin, "-config", cfgPath).CombinedOutput()
	if err == nil {
		t.Errorf("bad config accepted:\n%s", out2)
	}
	if !strings.HasPrefix(string(out2), "campaign: ") || strings.HasPrefix(string(out2), "campaign: campaign:") {
		t.Errorf("bad config error does not start with one \"campaign:\" prefix:\n%s", out2)
	}
}

// withoutWrote drops the "wrote ..." lines the campaign binary prints
// for its output files, which name the output directory.
func withoutWrote(stdout string) string {
	var kept []string
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "wrote ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestCampaignBinaryWorkerInvariance is the end-to-end acceptance test
// for the parallel campaign engine: the binary's stdout (render plus
// fitted machine files) must be byte-identical at -workers=1, 2 and 8.
func TestCampaignBinaryWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "campaign")

	cfgPath := filepath.Join(dir, "cfg.json")
	cfg := `{"machines":["gtx580","i7-950"],"lo_intensity":0.25,"hi_intensity":16,
		"points":6,"reps":6,"volume_bytes":67108864,"seed":99}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	type artifact struct {
		stdout string
		fitted map[string]string
	}
	run := func(workers string) artifact {
		outDir := filepath.Join(dir, "out-w"+workers)
		stdout := runBin(t, bin, "-config", cfgPath, "-workers", workers, "-out", outDir)
		fitted := map[string]string{}
		for _, key := range []string{"gtx580", "i7-950"} {
			data, err := os.ReadFile(filepath.Join(outDir, key+"-fitted.json"))
			if err != nil {
				t.Fatalf("-workers=%s: %v", workers, err)
			}
			fitted[key] = string(data)
		}
		// The render itself is identical; only the trailing "wrote ..."
		// lines name the per-worker-count output directory.
		return artifact{stdout: withoutWrote(stdout), fitted: fitted}
	}

	want := run("1")
	for _, workers := range []string{"2", "8"} {
		got := run(workers)
		if got.stdout != want.stdout {
			t.Errorf("-workers=%s stdout differs from -workers=1", workers)
		}
		for key := range want.fitted {
			if got.fitted[key] != want.fitted[key] {
				t.Errorf("-workers=%s fitted %s JSON differs from -workers=1", workers, key)
			}
		}
	}
}

// TestRooflinedBinary drives the HTTP service end to end: start on an
// ephemeral port, discover the address from stdout, exercise every
// endpoint including the cache-hit path, then shut down gracefully via
// SIGTERM and require a clean exit.
func TestRooflinedBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "rooflined")

	// A negative cache bound or timeout exits 2 with one "rooflined:"
	// line instead of serving; the deadline ends a server that starts.
	for _, c := range []struct{ flag, value, want string }{
		{"-cache-entries", "-1", "-cache-entries must be >= 0"},
		{"-cache-bytes", "-1", "-cache-bytes must be >= 0"},
		{"-timeout", "-1s", "-timeout must be >= 0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		msg, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", c.flag, c.value).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.HasPrefix(string(msg), "rooflined: ") || strings.Count(string(msg), "\n") != 1 ||
			!strings.Contains(string(msg), c.want) {
			t.Errorf("rooflined %s %s: exit %v, output:\n%s\nwant exit 2 with one rooflined: line naming %q", c.flag, c.value, err, msg, c.want)
		}
	}

	tracePath := filepath.Join(dir, "server-trace.json")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "10s", "-debug", "-trace", tracePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no announce line: %v", sc.Err())
	}
	announce := sc.Text()
	const prefix = "rooflined listening on "
	if !strings.HasPrefix(announce, prefix) {
		t.Fatalf("unexpected announce line %q", announce)
	}
	base := strings.TrimPrefix(announce, prefix)
	// Drain the rest of stdout in the background so shutdown messages
	// don't block the process.
	tail := make(chan string, 1)
	go func() {
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		tail <- strings.Join(lines, "\n")
	}()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data), resp.Header
	}
	post := func(path, body string) (int, string, http.Header) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data), resp.Header
	}

	if code, body, _ := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body, _ := get("/v1/machines"); code != 200 || !strings.Contains(body, "gtx580") {
		t.Errorf("machines: %d %q", code, body)
	}
	if code, body, _ := post("/v1/eval",
		`{"machine":"gtx580","precision":"double","intensity":4}`); code != 200 ||
		!strings.Contains(body, "energy_joules") {
		t.Errorf("eval: %d %q", code, body)
	}

	// An identical campaign posted twice: second response must be a
	// byte-identical cache hit.
	const campaignBody = `{"machines":["gtx580"],"lo_intensity":0.25,"hi_intensity":16,"points":5,"reps":3,"volume_bytes":1048576,"seed":11}`
	code1, body1, hdr1 := post("/v1/campaign", campaignBody)
	code2, body2, hdr2 := post("/v1/campaign", campaignBody)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("campaign codes: %d, %d", code1, code2)
	}
	if body1 != body2 {
		t.Error("repeated campaign bodies differ")
	}
	if hdr1.Get("X-Cache") != "miss" || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("X-Cache = %q then %q, want miss then hit", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}

	if code, body, _ := get("/metrics"); code != 200 ||
		!strings.Contains(body, "engine_runs_total 1") ||
		!strings.Contains(body, "cache_hits_total 1") ||
		!strings.Contains(body, "span_http_campaign") {
		t.Errorf("metrics: %d\n%s", code, body)
	}

	// -debug serves the span buffer as Chrome trace JSON and the pprof
	// index.
	if code, body, _ := get("/debug/trace"); code != 200 ||
		!strings.Contains(body, "traceEvents") ||
		!strings.Contains(body, "http.campaign") {
		t.Errorf("debug/trace: %d\n%s", code, body)
	}
	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("debug/pprof/: %d", code)
	}

	// Graceful shutdown: SIGTERM → drain messages on stdout, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before Wait: Wait closes the pipe and would
	// race with the reader goroutine.
	out := <-tail
	if err := cmd.Wait(); err != nil {
		t.Errorf("exit status: %v", err)
	}
	for _, want := range []string{"draining in-flight requests", "shutdown complete"} {
		if !strings.Contains(out, want) {
			t.Errorf("shutdown log missing %q:\n%s", want, out)
		}
	}
	// -trace dumped the span buffer at shutdown.
	if data, err := os.ReadFile(tracePath); err != nil {
		t.Errorf("shutdown trace dump: %v", err)
	} else if !strings.Contains(string(data), "traceEvents") {
		t.Error("shutdown trace dump is not a Chrome trace")
	}
}

// TestFleetsimBinary drives the fleet simulator CLI end to end: the
// scenario catalog, the JSON report schema, worker-count determinism of
// the report bytes, the Chrome trace artifact, and the error exits.
func TestFleetsimBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "fleetsim")

	// -scenario list names the full catalog.
	list := runBin(t, bin, "-scenario", "list")
	for _, name := range []string{"smoke", "cluster_1m", "burst_1m", "closed_1m", "hetero_1m"} {
		if !strings.Contains(list, name) {
			t.Errorf("-scenario list missing %q:\n%s", name, list)
		}
	}

	// One shrunken scenario with JSON report and Chrome trace artifacts.
	jsonPath := filepath.Join(dir, "fleet.json")
	tracePath := filepath.Join(dir, "fleet-trace.json")
	out := runBin(t, bin, "-scenario", "smoke", "-requests", "2000",
		"-json", jsonPath, "-trace", tracePath)
	for _, want := range []string{"scenario smoke", "round_robin", "least_loaded", "cache_affinity", "energy_aware", "J/req"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	// The JSON report parses and carries the documented schema.
	var report struct {
		Scenario string `json:"scenario"`
		Requests int    `json:"requests"`
		Policies []struct {
			Policy        string  `json:"policy"`
			Requests      int     `json:"requests"`
			ThroughputRPS float64 `json:"throughput_rps"`
			P99ms         float64 `json:"p99_ms"`
			CacheHitRate  float64 `json:"cache_hit_rate"`
			EnergyJoules  float64 `json:"energy_joules"`
			Replicas      []struct {
				Machine    string `json:"machine"`
				EngineRuns int    `json:"engine_runs"`
			} `json:"replicas"`
		} `json:"policies"`
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if report.Scenario != "smoke" || report.Requests != 2000 || len(report.Policies) != 4 {
		t.Fatalf("report shape wrong: %+v", report)
	}
	for _, p := range report.Policies {
		if p.Requests != 2000 || p.ThroughputRPS <= 0 || p.EnergyJoules <= 0 || len(p.Replicas) != 4 {
			t.Errorf("policy %s cell degenerate: %+v", p.Policy, p)
		}
	}

	// The -trace artifact is a loadable Chrome trace_event file with
	// virtual replica.serve spans.
	var chrome struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Name != "replica.serve" || ev.Phase != "X" || ev.Dur <= 0 {
			t.Fatalf("bad trace event: %+v", ev)
		}
	}

	// Worker-count determinism at the binary level: the JSON report is
	// byte-identical at -workers 1 and 8.
	p1 := filepath.Join(dir, "w1.json")
	p8 := filepath.Join(dir, "w8.json")
	runBin(t, bin, "-scenario", "smoke", "-requests", "2000", "-workers", "1", "-json", p1)
	runBin(t, bin, "-scenario", "smoke", "-requests", "2000", "-workers", "8", "-json", p8)
	d1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := os.ReadFile(p8)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d8) {
		t.Error("-workers 8 report differs from -workers 1")
	}

	// Error exits: unknown scenario, unreadable replay file.
	if out, err := exec.Command(bin, "-scenario", "warp9").CombinedOutput(); err == nil {
		t.Errorf("unknown scenario accepted:\n%s", out)
	} else if !strings.Contains(string(out), "unknown scenario") {
		t.Errorf("unhelpful error: %s", out)
	}
	if out, err := exec.Command(bin, "-replay", "/dev/null").CombinedOutput(); err == nil {
		t.Errorf("empty replay file accepted:\n%s", out)
	}

	// A marshalled trace replays to the generated run's report.
	writeTrace := func(name string, spec workload.Spec) (path string, data []byte) {
		t.Helper()
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if data, err = tr.Marshal(); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	smoke := cluster.Scenarios()["smoke"].Workload
	smokePath, smokeData := writeTrace("smoke-trace.json", smoke)
	if generated, replayed := runBin(t, bin, "-scenario", "smoke"), runBin(t, bin, "-scenario", "smoke", "-replay", smokePath); replayed != generated {
		t.Errorf("replayed smoke trace printed a different report:\n%s\nvs generated:\n%s", replayed, generated)
	}

	// A flag the run would ignore or misread exits 2 with one
	// "fleetsim:" line: -requests on a replay, which runs every row of
	// the file, and a negative -requests or -replicas.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "smoke", "-replay", smokePath, "-requests", "500"}, "-requests cannot resize a replayed trace"},
		{[]string{"-scenario", "smoke", "-requests", "-5"}, "-requests must be >= 0"},
		{[]string{"-scenario", "smoke", "-replicas", "-2"}, "-replicas must be >= 0"},
	} {
		msg, err := exec.Command(bin, c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.HasPrefix(string(msg), "fleetsim: ") || strings.Count(string(msg), "\n") != 1 ||
			!strings.Contains(string(msg), c.want) {
			t.Errorf("fleetsim %v: exit %v, output:\n%s\nwant exit 2 with one fleetsim: line naming %q", c.args, err, msg, c.want)
		}
	}

	// The file's ids and clients are checked on the wire, as rows no
	// longer store them: one edited "id" or "client" exits 2.
	closed := smoke
	closed.Kind, closed.Clients, closed.ThinkSeconds, closed.Requests = workload.Closed, 4, 0.5, 200
	closedPath, closedData := writeTrace("closed-trace.json", closed)
	runBin(t, bin, "-scenario", "smoke", "-replay", closedPath)
	for _, c := range []struct {
		name, from, to, want string
		data                 []byte
	}{
		{"id", `"id": 5,`, `"id": 6,`, "request 5 carries ID 6", smokeData},
		{"client", "\"client\": 1\n", "\"client\": 2\n", "closed-loop request 1 names client 2", closedData},
	} {
		edited := strings.Replace(string(c.data), c.from, c.to, 1)
		if edited == string(c.data) {
			t.Fatalf("%s edit found no %q to change", c.name, c.from)
		}
		path := filepath.Join(dir, "edited-"+c.name+".json")
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		msg, err := exec.Command(bin, "-scenario", "smoke", "-replay", path).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), c.want) {
			t.Errorf("replay with an edited %s: exit %v, output:\n%s\nwant exit 2 with %q", c.name, err, msg, c.want)
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e runs examples")
	}
	root := mustModuleRoot(t)
	examples, err := filepath.Glob(filepath.Join(root, "examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) < 3 {
		t.Fatalf("only %d examples found", len(examples))
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+filepath.Base(dir))
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			if len(out) < 100 {
				t.Errorf("example output suspiciously short:\n%s", out)
			}
		})
	}
}
