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

// loadRecords reads one run record, or every *.json record in a
// directory (in name order, so runs made in alternation pair up).
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// series collects one metric of one workload across runs.
func series(recs []record, workload, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Workloads[workload].Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// runCompare prints one row per workload and metric: each side's median
// and quartiles over its runs, the change of the medians and a verdict.
func runCompare(w io.Writer, sp *spec, oldPath, newPath string) error {
	olds, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tverdict\n")
	for _, wl := range sp.Workloads {
		for _, m := range sp.all() {
			ov, nv := series(olds, wl.Name, m.Name), series(news, wl.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, o2, o3 := quartiles(ov)
			n1, n2, n3 := quartiles(nv)
			change := "-"
			if o2 != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(n2-o2)/math.Abs(o2))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\n",
				wl.Name, m.Name, m.Unit, o2, o1, o3, len(ov), n2, n1, n3, len(nv), change, verdict(m, ov, nv))
		}
	}
	return tw.Flush()
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// verdict judges one metric. A metric without a bound (per-layer) gets
// none. A run-to-run spread wider than the bound on either side leaves
// it unresolved, unless every new run beats every old one. Otherwise it
// is worse when the new median is worse by more than the bound, better
// when the new median wins by more than the old side's own spread and
// the new side wins at least nine in ten pairs (runs paired in order),
// and unchanged in between.
func verdict(m metricSpec, old, new []float64) string {
	_, om, _ := quartiles(old)
	_, nm, _ := quartiles(new)
	if m.Bound == 0 || om == 0 {
		return "-"
	}
	worse := func(a, b float64) bool { // a worse than b
		if m.Better == "higher" {
			return a < b
		}
		return a > b
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && worse(o, n)
		}
	}
	if max(spread(old), spread(new)) > m.Bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	change := (nm - om) / math.Abs(om)
	if m.Better == "higher" {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	pairs, wins := min(len(old), len(new)), 0
	for i := 0; i < pairs; i++ {
		if worse(old[i], new[i]) {
			wins++
		}
	}
	if -change > spread(old) && 10*wins >= 9*pairs {
		return "better"
	}
	return "unchanged"
}
