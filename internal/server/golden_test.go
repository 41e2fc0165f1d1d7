package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// update regenerates the golden body digests:
//
//	go test ./internal/server -run TestEvalBodiesGolden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenBodyCase is one request whose exact response bytes the golden
// file pins.
type goldenBodyCase struct {
	name, path, body string
}

// fmtFloats renders a JSON number array with the shortest round-trip
// spelling of each value.
func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// goldenBodyCases enumerates the pinned requests: every catalog machine
// at both precisions under the default, explicit-analytic and blackbox
// models; inputs and outputs on both sides of encoding/json's 1e-6 and
// 1e21 float-format switches; default and explicit work; batches full
// of repeated values; and one batch of MaxBatchPoints distinct points,
// whose floats far outnumber any per-response memo table.
func goldenBodyCases() []goldenBodyCase {
	var cases []goldenBodyCase
	eval := func(name, machineKey, prec, modelName, work string, intensity float64) {
		body := fmt.Sprintf(`{"machine":%q,"precision":%q,%s"intensity":%s`, machineKey, prec, work,
			strconv.FormatFloat(intensity, 'g', -1, 64))
		if modelName != "" {
			body += fmt.Sprintf(`,"model":%q`, modelName)
		}
		cases = append(cases, goldenBodyCase{"eval/" + name, "/v1/eval", body + "}"})
	}
	batch := func(name, machineKey, prec, modelName string, work, intensities []float64) {
		body := fmt.Sprintf(`{"machine":%q,"precision":%q,`, machineKey, prec)
		if work != nil {
			body += `"work":` + fmtFloats(work) + ","
		}
		body += `"intensities":` + fmtFloats(intensities)
		if modelName != "" {
			body += fmt.Sprintf(`,"model":%q`, modelName)
		}
		cases = append(cases, goldenBodyCase{"evalbatch/" + name, "/v1/evalbatch", body + "}"})
	}

	machines := make([]string, 0, len(catalog()))
	for k := range catalog() {
		machines = append(machines, k)
	}
	sort.Strings(machines)
	grid := []float64{0.03125, 0.25, 1, 4, 16, 1000}
	for _, m := range machines {
		for _, prec := range []string{"single", "double"} {
			for _, modelName := range []string{"", "analytic", "blackbox"} {
				tag := m + "/" + prec + "/" + modelName
				for _, x := range grid {
					eval(tag+"/default-work/i="+strconv.FormatFloat(x, 'g', -1, 64), m, prec, modelName, "", x)
				}
				eval(tag+"/work=2.5e9/i=3", m, prec, modelName, `"work":2.5e9,`, 3)
				batch(tag+"/default-work", m, prec, modelName, nil, grid)
				batch(tag+"/explicit-work", m, prec, modelName, []float64{1e9, 2e6, 0, 3.5e12, 1e9, 7}, grid)
			}
		}
	}

	// Inputs straddling the format switches, chosen so that the outputs
	// (times, energies, EDP, flops per joule) straddle them too.
	switches := []float64{1e-9, 1e-7, math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		0.5, 1e20, math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, 1e22), 1e25}
	works := []float64{1e-3, 1, 1e9, 1e21, 1e30}
	var bw, bx []float64
	for _, w := range works {
		for _, x := range switches {
			for _, prec := range []string{"single", "double"} {
				ws := strconv.FormatFloat(w, 'g', -1, 64)
				eval("format-switch/"+prec+"/w="+ws+"/i="+strconv.FormatFloat(x, 'g', -1, 64), "gtx580", prec, "",
					`"work":`+ws+",", x)
			}
			bw = append(bw, w)
			bx = append(bx, x)
		}
	}
	batch("format-switch/double", "gtx580", "double", "", bw, bx)
	batch("format-switch/blackbox", "i7-950", "single", "blackbox", bw, bx)

	// Repeats: identical points, shared work, compute-bound points whose
	// roofline and arch lines saturate at 1, and capped twins.
	batch("repeats/points", "gtx580", "double", "", nil, []float64{4, 4, 4, 4, 0.25, 0.25, 4, 1e6, 1e6})
	batch("repeats/work", "fermi", "single", "", []float64{1e9, 1e9, 2e9, 2e9, 1e9}, []float64{8, 8, 8, 8, 64})
	batch("repeats/blackbox", "future", "double", "blackbox", nil, []float64{2, 2, 2, 512, 512})

	// One full-size batch: MaxBatchPoints distinct points.
	n := DefaultConfig().MaxBatchPoints
	fw, fx := make([]float64, n), make([]float64, n)
	for i := range fx {
		fw[i] = 1e9 + float64(i)*7919.5
		fx[i] = 1e-3 * math.Pow(1.0037, float64(i))
	}
	batch("max-points", "gtx580", "double", "", fw, fx)
	return cases
}

// TestEvalBodiesGolden pins the exact bytes of /v1/eval and
// /v1/evalbatch responses across the input space by SHA-256, so any
// change to evaluation or encoding that moves a single byte fails here.
// The digests were recorded before the column renderer replaced the
// struct encoders; the renderer must reproduce them without -update.
func TestEvalBodiesGolden(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	got := map[string]string{}
	for _, c := range goldenBodyCases() {
		if _, dup := got[c.name]; dup {
			t.Fatalf("duplicate golden case %q", c.name)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body.Bytes())
		}
		got[c.name] = fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes()))
	}

	golden := filepath.Join("testdata", "eval_bodies_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, the test generates %d", len(want), len(got))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: body sha256 %s, golden %s", name, got[name], want[name])
		}
	}
}

// TestListingBodiesPinned pins the GET /v1/machines and GET /v1/models
// replies as served over a real connection: status, header set, length
// and SHA-256 of the body. The digests were recorded while hand-rolled
// encoders still rendered both listings; json.MarshalIndent must
// reproduce them.
func TestListingBodiesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		path   string
		length int
		sha256 string
	}{
		{"/v1/machines", 1636, "dbd3b15016d592ab26d1bb7f3b0111560ccea2b95e37caec7a9e5f73dcabcee9"},
		{"/v1/models", 359, "2b83b7adf7638b2eec0acbdefd492a83f2dfb4757e903f93766067c69f5eb41f"},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		var keys []string
		for k := range resp.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "Content-Length,Content-Type,Date" {
			t.Errorf("%s: headers %s, want Content-Length,Content-Type,Date", c.path, got)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", c.path, got)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(c.length) {
			t.Errorf("%s: Content-Length %s, want %d", c.path, got, c.length)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); len(body) != c.length || got != c.sha256 {
			t.Errorf("%s: %d-byte body with sha256 %s, want %d bytes with %s", c.path, len(body), got, c.length, c.sha256)
		}
	}
}
