package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method) — the computation the driver applies to a set of runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// series collects one metric's values per workload over a set of runs.
func series(results []*result, workload, name string) []float64 {
	var v []float64
	for _, r := range results {
		if r.Workload == workload {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// workloadsOf lists the workloads present in a set, in declaration
// order.
func workloadsOf(results []*result) []string {
	var out []string
	for _, name := range workloadNames {
		for _, r := range results {
			if r.Workload == name {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// summarize prints each metric's median, quartiles and spread
// ((q3-q1)/median) per workload, and returns the last workload's
// medians as a result.
func summarize(decls []metricDecl, results []*result, w io.Writer) *result {
	var last *result
	for _, name := range workloadsOf(results) {
		last = &result{Workload: name, contract: contract{Correct: true, Metrics: map[string]metric{}}}
		runs := 0
		for _, r := range results {
			if r.Workload == name {
				runs++
				last.Attempted += r.Attempted
				last.Failed += r.Failed
				last.Correct = last.Correct && r.Correct
			}
		}
		fmt.Fprintf(w, "%s: %d runs\n  %-40s %12s %12s %12s %8s %6s\n", name, runs, "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range decls {
			q1, q2, q3 := quartiles(series(results, name, d.Name))
			last.Metrics[d.Name] = metric{Value: q2, Unit: d.Unit}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.3f", d.Bound)
			}
			fmt.Fprintf(w, "  %-40s %12.4f %12.4f %12.4f %8.4f %6s %s\n", d.Name, q1, q2, q3, (q3-q1)/q2, bound, d.Unit)
		}
	}
	return last
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}

// sameWork refuses two sets that did not do the same work: every run
// of a must have a run of b with the same workload, seed, length,
// client count and fingerprint.
func sameWork(a, b []*result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d runs against %d", len(a), len(b))
	}
	type key struct {
		workload string
		seed     uint64
	}
	byKey := map[key]*result{}
	for _, r := range b {
		byKey[key{r.Workload, r.Seed}] = r
	}
	for _, ra := range a {
		rb, ok := byKey[key{ra.Workload, ra.Seed}]
		switch {
		case !ok:
			return fmt.Errorf("%s seed %d has no counterpart", ra.Workload, ra.Seed)
		case ra.Seconds != rb.Seconds || ra.Attempted != rb.Attempted:
			return fmt.Errorf("%s seed %d: %g s / %d operations against %g s / %d", ra.Workload, ra.Seed, ra.Seconds, ra.Attempted, rb.Seconds, rb.Attempted)
		case ra.Clients != rb.Clients:
			return fmt.Errorf("%s seed %d: %d clients against %d", ra.Workload, ra.Seed, ra.Clients, rb.Clients)
		case ra.Counters != rb.Counters:
			return fmt.Errorf("%s seed %d: fingerprint %+v against %+v — the two trees did different work", ra.Workload, ra.Seed, ra.Counters, rb.Counters)
		}
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two -out files, a the
// parent and b the change: one row per (metric, workload).
func compareFiles(decl *benchDecl, pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if err := sameWork(a, b); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	regressions := 0
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse by", "a spread", "bound", "verdict")
	for _, name := range workloadsOf(a) {
		for _, d := range decl.EndToEnd {
			va, vb := series(a, name, d.Name), series(b, name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue // a traced set carries no end-to-end metrics
			}
			q1, ma, q3 := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			spread := (q3 - q1) / ma
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case spread > d.Bound && !allBetter(va, vb, d.Better == "higher"):
				// The parent's own runs disagree by more than the bound:
				// "within bound" would claim more than was measured.
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %+8.2f%% %7.2f%% %5.0f%%  %s\n",
				name, d.Name, ma, mb, 100*worse, 100*spread, 100*d.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressions)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, higher bool) bool {
	minA, maxA := a[0], a[0]
	for _, v := range a {
		minA, maxA = min(minA, v), max(maxA, v)
	}
	for _, v := range b {
		if higher && v <= maxA || !higher && v >= minA {
			return false
		}
	}
	return true
}
