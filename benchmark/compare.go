package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns reads results from a runs.jsonl (one result per line) or a single
// result file, keeping the end-to-end ones.
func readRuns(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []result
	var one result
	if json.Unmarshal(data, &one) == nil && one.Workload != "" {
		runs = append(runs, one)
	} else {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, r)
		}
	}
	kept := runs[:0]
	for _, r := range runs {
		if r.Mode == "end_to_end" {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the driver uses. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict applies one metric's bound in its "better" direction. A worsening
// past the bound is "regressed" only when the runs resolve it: where either
// side's spread is wider than the bound the verdict is "unresolved", unless
// every run of b reads better than every run of a.
func verdict(d metricDef, a, b []float64) (status string, change, spr float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := func(x, y float64) bool { // is y worse than x
		if d.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worsening := change
	if d.Better == "higher" {
		worsening = -change
	}
	spr = max(spread(a), spread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worse(x, y) || x == y {
				allBetter = false
			}
		}
	}
	switch {
	case spr > d.Bound && allBetter:
		return "pass", change, spr
	case spr > d.Bound:
		return "unresolved", change, spr
	case worsening > d.Bound:
		return "regressed", change, spr
	}
	return "pass", change, spr
}

// compareFiles prints pass / regressed / unresolved per end-to-end metric ×
// workload for runs b against runs a, and exits non-zero on a regression.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	collect := func(runs []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(stdout, "%-15s %-26s %3s %14s %3s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "n", "median b", "change", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := collect(a, w.Name, d.Name), collect(b, w.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			status, change, spr := verdict(d, xa, xb)
			if status == "regressed" {
				regressed++
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(stdout, "%-15s %-26s %3d %14.4f %3d %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, len(xa), ma, len(xb), mb, change*100, spr*100, d.Bound*100, status)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d metric × workload pairs regressed\n", regressed)
		return 1
	}
	return 0
}
