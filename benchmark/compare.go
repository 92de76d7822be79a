package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRuns loads a file written with -out (one result per line) and returns
// the end-to-end runs' values: workload → metric → one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) was not correct: %s", path, line, r.Workload, r.Seed, r.Error)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			runs[r.Workload][d.Name] = append(runs[r.Workload][d.Name], r.Values[d.Name])
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, both sets'
// medians, how much worse the second is than the first as a share of the
// first, the metric's bound, and a verdict: regressed when that share
// exceeds the bound, unresolved when either set's own spread (the distance
// between its quartiles over its median) is wider than the bound, so the
// sets cannot tell, ok otherwise. It reports whether anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		if a[w.name] == nil || b[w.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := summarize(a[w.name][d.Name]), summarize(b[w.name][d.Name])
			if sa.N == 0 || sb.N == 0 || sa.Median == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-16s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.name, d.Name, sa.Median, sb.Median, 100*worse, 100*spread, 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}
