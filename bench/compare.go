package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// readRecords reads every result file in dir (named as runOne names
// them, which trace files are not), oldest run first.
func readRecords(dir string) ([]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-t[01]-s*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Started.Before(recs[j].Started) })
	return recs, nil
}

// series collects one metric's values per (workload, trace) across runs.
func series(recs []record) map[[3]string][]float64 {
	out := map[[3]string][]float64{}
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			k := [3]string{r.Workload, fmt.Sprint(r.Trace), name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareDirs prints, for every (workload, metric) both directories
// measured, each side's median and quartiles, the share of run pairs B
// won, and how far B's median is from A's. For an end-to-end metric it
// gives a verdict against the BENCHMARK.json bound: within, better, or
// WORSE; "gain" marks a B that won at least nine tenths of the pairs by
// more than A's own spread. It reports whether any metric was WORSE.
func compareDirs(spec *benchSpec, dirA, dirB string, w io.Writer) (bool, error) {
	recA, err := readRecords(dirA)
	if err != nil {
		return false, err
	}
	recB, err := readRecords(dirB)
	if err != nil {
		return false, err
	}
	a, b := series(recA), series(recB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB won\tB worse by\tbound\tverdict")
	worse := false
	for _, wl := range spec.Workloads {
		for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range metrics {
				k := [3]string{wl.Name, fmt.Sprint(trace), m.Name}
				xa, xb := a[k], b[k]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				c := compareSeries(xa, xb, m.Better == "higher")
				bound, verdict := "-", "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", m.Bound*100)
					switch {
					case c.worseBy > m.Bound:
						verdict, worse = "WORSE", true
					case c.worseBy < -m.Bound:
						verdict = "better"
					default:
						verdict = "within"
					}
					if c.gain {
						verdict += " (gain)"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f%%\t%+.2f%%\t%s\t%s\n", wl.Name, m.Name, m.Unit,
					summary(xa), summary(xb), c.won*100, c.worseBy*100, bound, verdict)
			}
		}
	}
	return worse, tw.Flush()
}

// comparison is one metric's A-against-B result.
type comparison struct {
	won     float64 // share of pairs B won; ties count for neither side
	worseBy float64 // B's median against A's, as a share of A's; positive is worse
	gain    bool    // B won ≥ 9/10 of the pairs and its median beats A's by more than A's quartile spread
}

// compareSeries pairs the i-th run of A with the i-th run of B.
func compareSeries(xa, xb []float64, higherBetter bool) comparison {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	pairs := min(len(xa), len(xb))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(xb[i]-xa[i]) < 0 {
			wins++
		}
	}
	ma, mb := median(xa), median(xb)
	q1, q3 := quartiles(xa)
	c := comparison{won: float64(wins) / float64(pairs)}
	if ma != 0 {
		c.worseBy = sign * (mb - ma) / math.Abs(ma)
	}
	c.gain = 10*wins >= 9*pairs && sign*(ma-mb) > q3-q1
	return c
}

// summary renders a series as "median [q1, q3] (n)".
func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}
