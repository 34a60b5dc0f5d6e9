package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// compare judges the untraced runs matching headPattern against those
// matching basePattern, per workload and end-to-end metric. Runs pair
// up in file-name order. It returns exit code 1 on a regression or a
// higher failed-op fraction.
func compare(w io.Writer, basePattern, headPattern string) (int, error) {
	base, err := loadRuns(basePattern)
	if err != nil {
		return 2, err
	}
	head, err := loadRuns(headPattern)
	if err != nil {
		return 2, err
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-17s %-6s %-36s %-36s %-7s %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, wl := range workloads {
		b, h := base[wl.name], head[wl.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, m := range endToEnd {
			bv, hv := metricValues(b, m.Name), metricValues(h, m.Name)
			v, wins, pairs := m.verdict(bv, hv)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-17s %-6s %-36s %-36s %-7s %s\n",
				wl.name, m.Name, m.Unit, summary(bv), summary(hv), fmt.Sprintf("%d/%d", wins, pairs), v)
		}
		bf, hf := failFrac(b), failFrac(h)
		verdict := "unchanged"
		if hf > bf {
			verdict, code = "regressed", 1
		}
		fmt.Fprintf(w, "%-13s %-17s %-6s %-36.6g %-36.6g %-7s %s\n", wl.name, "fail_frac", "ratio", bf, hf, "", verdict)
	}
	return code, nil
}

// loadRuns reads the untraced records of every file matching pattern,
// grouped by workload.
func loadRuns(pattern string) (map[string][]*record, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no run files match %q", pattern)
	}
	runs := make(map[string][]*record)
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if !r.Traced {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	return runs, nil
}

func metricValues(recs []*record, name string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func summary(values []float64) string {
	q1, q2, q3 := quartiles(values)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

func failFrac(recs []*record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}
