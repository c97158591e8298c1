package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns groups an -out file's end-to-end records as
// workload → metric → one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, both sets' medians
// and quartile spreads, the gap between the medians in the direction that is
// worse, and the bound; it returns 1 when a gap exceeds its bound, which is
// the driver's rule for two sets of runs of the same code.
func runCompare(paths []string, w io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json (run from the repository root): %v\n", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, p := range paths {
		if sets[i], err = readRuns(p); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-17s %-22s %3s %14s %7s %14s %7s %8s %6s\n",
		"workload", "metric", "n", "median a", "iqr a", "median b", "iqr b", "b worse", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][wl.name][m.Name], sets[1][wl.name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(w, "%-17s %-22s needs at least two runs in each file\n", wl.name, m.Name)
				code = 1
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-22s %3d %14.4f %6.2f%% %14.4f %6.2f%% %+7.2f%% %5.0f%%%s\n",
				wl.name, m.Name, min(len(a), len(b)), ma, 100*(qa[2]-qa[0])/ma, mb, 100*(qb[2]-qb[0])/mb,
				100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
