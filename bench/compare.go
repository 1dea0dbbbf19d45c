package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareFiles is `bench -compare A.json B.json`: A is the base (the parent
// commit, or the first set of runs), B the candidate. For every workload x
// end-to-end metric it prints both medians with their quartiles, the ratio
// B/A, the metric's bound and a verdict:
//
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better by more than the bound
//	unresolved  the spread of either side (quartile distance over median) is
//	            wider than the bound, so a difference inside it means nothing
//	            — unless every run of one side beats every run of the other
//	same        otherwise
//
// Per-layer metrics are listed with medians and ratio only (they have no
// bound). Exact fields — sim_digest, the op-list hash, count metrics — must
// be identical for every (workload, seed) present in both files. Exit status
// 1 on any `worse` or any exact mismatch.
func compareFiles(pathA, pathB string) int {
	a, err := loadRecords(pathA)
	if err == nil {
		var b []runRecord
		if b, err = loadRecords(pathB); err == nil {
			return compareRecords(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func loadRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// series collects one metric's values over the runs of one workload and mode.
type seriesKey struct {
	workload string
	trace    int
	metric   string
}

func collect(recs []runRecord) (map[seriesKey][]float64, map[seriesKey]string) {
	vals, units := map[seriesKey][]float64{}, map[seriesKey]string{}
	for _, r := range recs {
		for name, s := range r.Metrics {
			k := seriesKey{r.Workload, r.Trace, name}
			vals[k] = append(vals[k], s.Value)
			units[k] = s.Unit
		}
	}
	return vals, units
}

func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// allBeat reports whether every value of x is strictly better than every
// value of y.
func allBeat(x, y []float64, lowerBetter bool) bool {
	sx, sy := sorted(x), sorted(y)
	if lowerBetter {
		return sx[len(sx)-1] < sy[0]
	}
	return sx[0] > sy[len(sy)-1]
}

func verdict(a, b []float64, spec metricSpec) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	lower := spec.Better != "higher"
	// worsening as a share of the base median, positive = B is worse
	delta := (mb - ma) / math.Abs(ma)
	if !lower {
		delta = -delta
	}
	noisy := spread(a) > spec.Bound || spread(b) > spec.Bound
	switch {
	case noisy && allBeat(b, a, lower):
		return "better"
	case noisy && allBeat(a, b, lower):
		return "worse"
	case noisy:
		return "unresolved"
	case delta > spec.Bound:
		return "worse"
	case delta < -spec.Bound:
		return "better"
	}
	return "same"
}

func compareRecords(a, b []runRecord) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	va, units := collect(a)
	vb, _ := collect(b)
	status := 0

	row := func(k seriesKey, m metricSpec, bounded bool) {
		xa, xb := va[k], vb[k]
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		a1, a2, a3 := quartiles(xa)
		b1, b2, b3 := quartiles(xb)
		v, bound := "", ""
		if bounded {
			v, bound = verdict(xa, xb, m), fmt.Sprintf("%g%%", m.Bound*100)
			if v == "worse" {
				status = 1
			}
		}
		fmt.Printf("%-12s %-36s %-6s A %11.5g [%11.5g %11.5g] n=%-2d  B %11.5g [%11.5g %11.5g] n=%-2d  B/A %7.4f (base %.5g)  %5s  %s\n",
			k.workload, k.metric, units[k], a2, a1, a3, len(xa), b2, b1, b3, len(xb), b2/a2, a2, bound, v)
	}
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			row(seriesKey{w, 0, m.Name}, m, true)
		}
	}
	for _, w := range spec.workloadNames() {
		for _, m := range spec.PerLayer {
			row(seriesKey{w, 1, m.Name}, m, false)
		}
	}

	// Exact fields, matched run for run by (workload, mode, seed, seconds).
	type runKey struct {
		workload       string
		trace, seconds int
		seed           int64
	}
	exactOf := func(r runRecord) map[string]string {
		ex := map[string]string{}
		for k, v := range r.Exact {
			ex[k] = v
		}
		for name, s := range r.Metrics {
			if s.Unit == "count" && !racyCounts[name] {
				ex[name] = fmt.Sprintf("%g", s.Value)
			}
		}
		return ex
	}
	base := map[runKey]map[string]string{}
	for _, r := range a {
		base[runKey{r.Workload, r.Trace, r.Seconds, r.Seed}] = exactOf(r)
	}
	matched := 0
	for _, r := range b {
		ea, ok := base[runKey{r.Workload, r.Trace, r.Seconds, r.Seed}]
		if !ok {
			continue
		}
		matched++
		eb := exactOf(r)
		names := make([]string, 0, len(ea))
		for n := range ea {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if eb[n] != ea[n] {
				fmt.Printf("EXACT MISMATCH %s seed=%d trace=%d %s: A=%s B=%s\n", r.Workload, r.Seed, r.Trace, n, ea[n], eb[n])
				status = 1
			}
		}
	}
	fmt.Printf("exact fields compared on %d run pair(s) with equal workload, mode, seed and seconds\n", matched)
	for _, recs := range [][]runRecord{a, b} {
		for _, r := range recs {
			if r.Failed > 0 {
				fmt.Printf("FAILED OPS %s seed=%d trace=%d: %d of %d\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	return status
}

// racyCounts are count metrics that depend on process interleaving (which
// worker reaches a cell first, how long a compute outlives its heartbeat), so
// they are reported with spread rather than compared exactly.
var racyCounts = map[string]bool{
	"lease.acquired": true, "lease.stolen": true, "lease.lost": true, "lease.renewals": true,
	"runner.dedups": true, "runner.memo_hits": true,
}
