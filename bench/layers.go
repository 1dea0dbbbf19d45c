package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"o2k/internal/experiments"
	"o2k/internal/runner/diskcache"
)

// A traced run (--trace 1) is: one unit of the workload with the program's
// own reporting switched on (-runreport=json, O2K_LEASE_AUDIT, /v1/report,
// /metrics) for the per-workload counts, then the workload-independent part
// — roster, kernels, tier passes, a short live-daemon session — whose spans
// are recorded from this package around its calls into each layer.

// commonLayers is the workload-independent part. It is computed once per
// process: the single-workload contract mode needs it once anyway, and the
// full ledger mode would otherwise repeat it for each of the four workloads.
type commonLayers struct {
	metrics  map[string]sample
	problems []string
	checks   int
	serve    *serveStats // the short live-daemon session
	info     []string
}

// reportDoc is the part of `o2kbench -runreport=json` (and GET /v1/report)
// the count metrics read.
type reportDoc struct {
	Unique       int   `json:"unique_cells"`
	Requests     int64 `json:"requests"`
	Hits         int64 `json:"hits"`
	Dedups       int64 `json:"dedups"`
	DiskHits     int64 `json:"disk_hits"`
	PlanDiskHits int64 `json:"plan_disk_hits"`
	Cells        []struct {
		Key  string `json:"key"`
		Kind string `json:"kind"`
	} `json:"cells"`
}

func parseReport(data []byte) (reportDoc, error) {
	var doc reportDoc
	// The report is the last JSON document on stderr; worker chatter may
	// precede it.
	i := bytes.Index(data, []byte("{\n"))
	if i < 0 {
		return doc, fmt.Errorf("no run report in %d bytes of stderr", len(data))
	}
	err := json.Unmarshal(data[i:], &doc)
	return doc, err
}

func setReport(set func(string, float64, string, int), doc reportDoc) {
	set("runner.unique_cells", float64(doc.Unique), "count", 1)
	set("runner.requests", float64(doc.Requests), "count", 1)
	set("runner.memo_hits", float64(doc.Hits), "count", 1)
	set("runner.dedups", float64(doc.Dedups), "count", 1)
	set("runner.disk_hits", float64(doc.DiskHits), "count", 1)
	set("runner.plan_disk_hits", float64(doc.PlanDiskHits), "count", 1)
}

// leaseAudit counts the protocol events of an O2K_LEASE_AUDIT stream set.
func leaseAudit(prefix string) map[string]int {
	counts := map[string]int{}
	files, _ := filepath.Glob(prefix + ".*.jsonl")
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			var ev struct {
				Kind string `json:"ev"`
			}
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				counts[ev.Kind]++
			}
		}
		fh.Close()
		os.Remove(f)
	}
	return counts
}

// promValue reads one sample of a Prometheus text page.
func promValue(page []byte, series string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// perWorkloadCounts are the per-layer metrics whose value belongs to one
// workload. Every traced run reports all of them; a layer the workload does
// not use reads 0.
var perWorkloadCounts = map[string]string{
	"runner.unique_cells": "count", "runner.requests": "count", "runner.memo_hits": "count",
	"runner.dedups": "count", "runner.disk_hits": "count", "runner.plan_disk_hits": "count",
	"lease.acquired": "count", "lease.stolen": "count", "lease.lost": "count", "lease.renewals": "count",
	"diskcache.bytes": "count", "server.rejected": "count",
	"cmd.o2kbench.sys_s": "s", "cmd.o2kbench.peak_rss_mb": "MB",
}

// tracedRun is --trace 1 for one workload.
func tracedRun(ctx context.Context, e *env, z sizing, name string, seed int64) *result {
	r := newResult(name)
	set := r.set
	for n, unit := range perWorkloadCounts {
		set(n, 0, unit, 0)
	}

	unit := func(args ...string) {
		c := e.run(ctx, nil, append(z.quickArgs(args...), "-runreport=json")...)
		r.op(c.problem())
		doc, err := parseReport(c.stderr)
		if err != nil {
			r.op(err.Error())
			return
		}
		setReport(set, doc)
		set("cmd.o2kbench.sys_s", c.sys, "s", 1)
		set("cmd.o2kbench.peak_rss_mb", c.rssMB, "MB", 1)
		r.exact["sim_digest"] = digest(c.stdout)
	}
	switch name {
	case "paper_cold":
		unit("-exp", "all", "-jobs", "1")
	case "scale_cold":
		unit("-exp", "mesh-speedup", "-procs", z.scaleProcs(), "-jobs", "1")
	case "cache_cycle":
		one := z
		one.cycles, one.setups, one.warmPerCycle = 1, 1, 2
		var tr cycleTrace
		cr := cacheCycle(ctx, e, one, &tr)
		r.attempted, r.failed, r.failures = r.attempted+cr.attempted, r.failed+cr.failed, append(r.failures, cr.failures...)
		if doc, err := parseReport(tr.warmReport); err != nil {
			r.op(err.Error())
		} else {
			setReport(set, doc)
		}
		audit := leaseAudit(tr.auditGlob)
		set("lease.acquired", float64(audit["acquire"]+audit["steal"]), "count", 1)
		set("lease.stolen", float64(audit["steal"]), "count", 1)
		set("lease.lost", float64(audit["lost"]), "count", 1)
		set("lease.renewals", float64(audit["renew"]), "count", 1)
		set("diskcache.bytes", float64(tr.cacheBytes), "count", 1)
		set("cmd.o2kbench.sys_s", tr.fillSys, "s", 1)
		set("cmd.o2kbench.peak_rss_mb", tr.rssMB, "MB", 1)
		r.exact["sim_digest"] = cr.exact["sim_digest"]
	case "serve_mixed":
		if st := e.commonOnce(ctx, z, seed).serve; st != nil {
			var doc reportDoc
			if err := json.Unmarshal(st.report, &doc); err != nil {
				r.op("GET /v1/report: " + err.Error())
			} else {
				setReport(set, doc)
			}
			set("cmd.o2kbench.sys_s", st.sys, "s", 1)
			set("cmd.o2kbench.peak_rss_mb", st.rssMB, "MB", 1)
			r.exact["sim_digest"], r.exact["oplist_sha256"] = st.simDigest, st.opsSHA
		}
	}
	common := e.commonOnce(ctx, z, seed)
	if st := common.serve; st != nil {
		set("server.rejected", promValue(st.metricsPage, `o2k_admission_rejected_total{reason="queue_full"}`)+
			promValue(st.metricsPage, `o2k_admission_rejected_total{reason="draining"}`), "count", 1)
	}

	for n, s := range common.metrics {
		r.metrics[n] = s
	}
	r.attempted += common.checks
	for _, p := range common.problems {
		r.op(p)
	}
	r.info = append(r.info, common.info...)
	return r
}

// commonOnce computes (once) everything a traced run reports that does not
// depend on the workload, and writes the span file.
func (e *env) commonOnce(ctx context.Context, z sizing, seed int64) *commonLayers {
	if e.common != nil {
		return e.common
	}
	c := &commonLayers{metrics: map[string]sample{}}
	e.common = c
	set := func(name string, v float64, unit string, n int) { c.metrics[name] = sample{v, unit, n} }
	fail := func(format string, args ...any) { c.problems = append(c.problems, fmt.Sprintf(format, args...)) }
	set("bench.loadavg_start", e.host.Loadavg1, "load", 1)

	tr := newTracer()
	var err error

	// Children first, while this process is still small (see env.run on
	// ru_maxrss): the live-daemon session, then the tier passes.
	// A short live-daemon session: tail latencies, readiness, rejections.
	r := newResult("serve")
	tr.do("serve.session", "serve", func() {
		zs := z
		zs.coldBands = 1
		quick := e.run(ctx, nil, "-quick", "-exp", "all")
		r.op(quick.problem())
		c.serve, err = serveSession(ctx, e, zs, seed, r, quick.stdout, true)
	})
	if err != nil {
		fail("live daemon session: %v", err)
	} else {
		st := c.serve
		set("server.ready_ms", st.readyS*1e3, "ms", 1)
		set("server.req_post_p50_ms", median(st.post)*1e3, "ms", len(st.post))
		set("server.req_warm_p99_ms", percentile(st.warm, 0.99)*1e3, "ms", len(st.warm))
		set("server.req_cold_p90_ms", percentile(st.cold, 0.9)*1e3, "ms", len(st.cold))
	}
	c.checks += r.attempted
	c.problems = append(c.problems, r.failures...)

	tierPasses(ctx, e, z, tr, set, fail)
	c.checks++

	dir, cleanup, err := e.tempDir("roster")
	if err != nil {
		fail("%v", err)
		return c
	}
	defer cleanup()
	cache, err := diskcache.Open(dir)
	if err != nil {
		fail("%v", err)
		return c
	}
	ro := rosterMetrics(z, tr, cache, set)
	c.checks += ro.cells / 3 // one checksum comparison per (app, P)
	c.problems = append(c.problems, ro.problems...)

	// Tracing overhead: the quick roster with and without spans, alternating.
	var on, off []float64
	qo, qp := experiments.QuickOpts(), []int{1, 4, 16}
	for i := 0; i < min(z.rounds, 3); i++ {
		on = append(on, timed(func() { roster(newTracer(), qo, qp, nil) }).Seconds())
		off = append(off, timed(func() { roster(nil, qo, qp, nil) }).Seconds())
	}
	set("bench.trace_overhead_frac", (median(on)-median(off))/median(off), "ratio", len(on))

	k := &kernels{z: z, tr: tr, set: set}
	simKernels(k)
	numaKernels(k)
	runtimeKernels(k)
	substrateKernels(k)
	if err := hostKernels(ctx, k, e, ro.sample); err != nil {
		fail("host kernels: %v", err)
	}
	c.checks++

	// Estimated split of the roster's run time: kernel ns/op times exact
	// counts. The interior of RunWithPlans is opaque from outside the
	// program, so this is an estimate, labelled as such.
	hits := c.metrics["numa.accesses"].Value - c.metrics["numa.misses"].Value
	estNuma := hits*c.metrics["numa.load_hit_ns"].Value + c.metrics["numa.misses"].Value*c.metrics["numa.load_stream_ns"].Value
	var runMS float64
	for n, s := range c.metrics {
		if strings.Contains(n, ".run_ms.") && !strings.HasSuffix(n, ".hybrid") {
			runMS += s.Value
		}
	}
	c.info = append(c.info, fmt.Sprintf("estimated: numa charging ~ %.0f ms of the roster's %.0f ms of run time (hits x load_hit_ns + misses x load_stream_ns)",
		estNuma/1e6, runMS))

	out := filepath.Join(e.root, "bench", "out", "trace.json")
	if err := tr.write(out); err != nil {
		fail("write trace: %v", err)
	} else {
		c.info = append(c.info, fmt.Sprintf("trace: %d spans -> bench/out/trace.json", len(tr.spans)))
	}
	return c
}

// tierPasses price the cmd/o2kbench front end one tier at a time, at quick
// scale: the fixed per-cell costs (hashing, disk commit, lease files) are the
// same as at full scale but are not buried under seconds of simulation.
func tierPasses(ctx context.Context, e *env, z sizing, tr *tracer, set func(string, float64, string, int), fail func(string, ...any)) {
	set("cmd.o2kbench.build_s", e.buildTime.Seconds(), "s", 1)
	if info, err := os.Stat(e.bin); err == nil {
		set("cmd.o2kbench.binary_mb", float64(info.Size())/(1<<20), "MB", 1)
	}
	// pass times one command line z.rounds times. With cached set, every round
	// gets a fresh cache directory, optionally prepared by prep.
	pass := func(name string, cached bool, prep func(dir string) error, args ...string) {
		var v []float64
		for i := 0; i < min(z.rounds, 3); i++ {
			full := args
			if cached {
				dir, cleanup, err := e.tempDir("tier")
				if err != nil {
					fail("%s: %v", name, err)
					return
				}
				defer cleanup()
				if prep != nil {
					if err := prep(dir); err != nil {
						fail("%s: %v", name, err)
						return
					}
				}
				full = append(append([]string(nil), args...), "-cache", dir)
			}
			var c child
			tr.do(name, "tier", func() { c = e.run(ctx, nil, full...) })
			if p := c.problem(); p != "" {
				fail("%s: %s", name, p)
				return
			}
			v = append(v, c.wall)
		}
		unit, scale := "s", 1.0
		if strings.HasSuffix(name, "_ms") {
			unit, scale = "ms", 1e3
		}
		set(name, median(v)*scale, unit, len(v))
	}
	quick := []string{"-quick", "-exp", "all", "-jobs", "1"}
	pass("cmd.o2kbench.startup_ms", false, nil, "-version")
	pass("cmd.o2kbench.quick_cold_s", false, nil, quick...)
	pass("cmd.o2kbench.quick_jobs2_s", false, nil, "-quick", "-exp", "all", "-jobs", "2")
	pass("cmd.o2kbench.quick_cold_cache_s", true, nil, quick...)
	pass("cmd.o2kbench.quick_cold_leases_s", true, nil, append(quick, "-leases")...)
	// Plan-warm: fill, then delete the metrics cells the run report names
	// and keep the plan cells, so the pass re-simulates from cached plans.
	pass("cmd.o2kbench.quick_plan_warm_s", true, func(dir string) error {
		fill := e.run(ctx, nil, append(append([]string(nil), quick...), "-cache", dir, "-runreport=json")...)
		if p := fill.problem(); p != "" {
			return fmt.Errorf("%s", p)
		}
		doc, err := parseReport(fill.stderr)
		if err != nil {
			return err
		}
		for _, cell := range doc.Cells {
			if cell.Kind == "metrics" {
				os.Remove(diskcache.SidecarPath(dir, cell.Key, ".cell"))
			}
		}
		return nil
	}, quick...)
}
