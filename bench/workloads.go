package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// sizing turns --seconds into op counts. The counts are a pure function of
// --seconds (not of how fast this host happens to be) so that two runs issue
// the same ops and compare op for op; the constants are what makes a run on
// the reference 2-CPU sandbox measure for about --seconds: a paper pass is
// ~9.5 s, a scale pass ~3.6 s, a cache cycle ~7 s, and a daemon session
// (set-up, the 4800-request list, drain) ~7.5 s.
type sizing struct {
	smoke bool // -smoke: every pass at -quick, one of everything

	setups       int // set-up repetitions; setup_s is their median
	paperPasses  int
	scalePasses  int
	cycles       int // cache_cycle: fill + warm passes + verify, per cycle
	warmPerCycle int
	serveRounds  int // serve_mixed: daemon sessions, each consuming the whole list
	coldBands    int // serve_mixed: cold cells = 24 strata x bands
	warmGetsPer  int // warm GETs per cold cell
	postsPer3    int // warm POSTs per three cold cells

	rounds int // kernel repetitions; the metric is the median round
	iters  int // kernel iteration divisor: 1 = full, large = one iteration
}

func sizeFor(seconds int, smoke bool) sizing {
	if smoke {
		return sizing{smoke: true, setups: 1, paperPasses: 1, scalePasses: 1, cycles: 1,
			warmPerCycle: 2, serveRounds: 1, coldBands: 1, warmGetsPer: 22, postsPer3: 4, rounds: 1, iters: 1 << 30}
	}
	atLeast := func(lo, v int) int {
		if v < lo {
			return lo
		}
		return v
	}
	return sizing{
		setups:       5,
		paperPasses:  atLeast(2, seconds/10),
		scalePasses:  atLeast(2, seconds/4),
		cycles:       atLeast(1, seconds/8),
		warmPerCycle: 8,
		serveRounds:  atLeast(1, seconds/8),
		coldBands:    6,
		warmGetsPer:  30,
		postsPer3:    7,
		rounds:       5,
		iters:        1,
	}
}

// quickArgs prepends -quick in smoke mode, so the harness is exercised end to
// end at a scale the tier-1 test budget can afford.
func (z sizing) quickArgs(args ...string) []string {
	if z.smoke {
		return append([]string{"-quick"}, args...)
	}
	return args
}

// result is what one workload run produced, before it is rendered.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string          // why each failed op failed (first few are printed)
	metrics   map[string]sample // by metric name
	exact     map[string]string // host-independent fields: digests, op-list hash
	info      []string          // extra ledger lines (not metrics)
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]sample{}, exact: map[string]string{}}
}

// op records one attempted operation; a non-empty problem makes it a failure.
func (r *result) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.failures = append(r.failures, problem)
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = sample{Value: v, Unit: unit, N: n}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// warmUp is the untimed part every workload starts with: a `-quick -exp all`
// pass that pages the binary in. It is repeated so setup_s can be a median;
// its stdout is the quick-scale reference the cache and daemon outputs are
// compared against.
func warmUp(ctx context.Context, e *env, z sizing, r *result) (setup []float64, quickRef []byte) {
	for i := 0; i < z.setups; i++ {
		c := e.run(ctx, nil, "-quick", "-exp", "all")
		r.op(c.problem())
		setup = append(setup, e.ref(c.wall, c.began, c.ended))
		if i == 0 {
			quickRef = c.stdout
		} else if !bytes.Equal(c.stdout, quickRef) {
			r.op("warm-up passes disagree on stdout")
		}
	}
	return setup, quickRef
}

// passStats reduces a list of same-kind child runs to the end-to-end metrics
// every workload reports. wall and cpu are reference seconds (env.ref); raw is
// the stopwatch, kept for the ledger's information lines.
type passStats struct {
	wall, cpu, raw, rss []float64
}

func (p *passStats) add(e *env, c child) {
	p.wall = append(p.wall, e.ref(c.wall, c.began, c.ended))
	p.cpu = append(p.cpu, e.ref(c.cpu, c.began, c.ended))
	p.raw = append(p.raw, c.wall)
	p.rss = append(p.rss, c.rssMB)
}

// hostLine is the ledger line that says how fast the host was while the
// workload measured, so a reader can undo the weighing.
func hostLine(e *env, from, to time.Time) string {
	if e.speedo == nil {
		return "host speed: not measured (raw seconds)"
	}
	speed, n := e.speedo.over(from, to)
	return fmt.Sprintf("host speed while measuring: %.3f of the reference host (n=%d units); timings above are raw seconds x speed", speed, n)
}

// coldPasses is paper_cold and scale_cold: the same command line, a fresh
// process and no cache each pass. There is one kind of op, so the fast and
// the slow latency views coincide with wall_s by construction.
func coldPasses(ctx context.Context, e *env, z sizing, name string, passes int, args ...string) *result {
	r := newResult(name)
	setup, _ := warmUp(ctx, e, z, r)
	var ps passStats
	var ref []byte
	start := time.Now()
	for i := 0; i < passes && ctx.Err() == nil; i++ {
		c := e.run(ctx, nil, args...)
		r.op(c.problem())
		ps.add(e, c)
		if i == 0 {
			ref = c.stdout
		} else if !bytes.Equal(c.stdout, ref) {
			r.op(fmt.Sprintf("pass %d disagrees with pass 0 on stdout (sim_digest)", i))
		}
	}
	end := time.Now()
	span := e.ref(end.Sub(start).Seconds(), start, end)
	n := len(ps.wall)
	r.set("wall_s", median(ps.wall), "s", n)
	r.set("cpu_s", median(ps.cpu), "s", n)
	r.set("fast_p50_ms", median(ps.wall)*1e3, "ms", n)
	r.set("slow_p50_ms", median(ps.wall)*1e3, "ms", n)
	r.set("ops_per_s", float64(n)/span, "1/s", n)
	r.set("setup_s", median(setup), "s", len(setup))
	r.exact["sim_digest"] = digest(ref)
	r.info = append(r.info, fmt.Sprintf("passes: raw wall_s %.3f  peak_rss_mb %.0f", ps.raw, ps.rss), hostLine(e, start, end))
	return r
}

func paperCold(ctx context.Context, e *env, z sizing) *result {
	return coldPasses(ctx, e, z, "paper_cold", z.paperPasses, z.quickArgs("-exp", "all", "-jobs", "1")...)
}

// scaleProcs is the scale_cold sweep. P = 1024 is deliberately absent: its
// cells spend a third to a half of their host time in sys and do not repeat
// within a tenth, so it is priced in the traced run only.
func (z sizing) scaleProcs() string {
	if z.smoke {
		return "1,32,64"
	}
	return "1,256,512"
}

func scaleCold(ctx context.Context, e *env, z sizing) *result {
	return coldPasses(ctx, e, z, "scale_cold", z.scalePasses,
		z.quickArgs("-exp", "mesh-speedup", "-procs", z.scaleProcs(), "-jobs", "1")...)
}

// cycleTrace is what a traced cache cycle additionally collects.
type cycleTrace struct {
	warmReport []byte // -runreport=json of one warm pass
	auditGlob  string // O2K_LEASE_AUDIT prefix of the fill
	cacheBytes int64
	fillSys    float64
	rssMB      float64 // largest process of the cycle
}

// cacheCycle runs the cache both ways: a two-worker fleet fills a fresh
// directory (disk commits, lease files, the parent's merge pass), fresh
// processes then re-run the suite from it (startup, key hashing, disk reads,
// codec decode, table assembly), and -cache-verify audits the directory.
// Every stdout must be byte-equal; the cache path is also checked against
// the no-cache path at quick scale, where a from-scratch reference is cheap.
func cacheCycle(ctx context.Context, e *env, z sizing, tr *cycleTrace) *result {
	r := newResult("cache_cycle")
	setup, quickRef := warmUp(ctx, e, z, r)

	var fills, warms passStats
	var ref []byte
	ops := 0
	start := time.Now()
	for cyc := 0; cyc < z.cycles && ctx.Err() == nil; cyc++ {
		dir, cleanup, err := e.tempDir("cache")
		if err != nil {
			r.op(err.Error())
			break
		}
		var fillEnv []string
		if tr != nil {
			tr.auditGlob = dir + "-audit"
			fillEnv = []string{"O2K_LEASE_AUDIT=" + tr.auditGlob}
		}
		fill := e.run(ctx, fillEnv, z.quickArgs("-exp", "all", "-workers", "2", "-cache", dir)...)
		r.op(fill.problem())
		fills.add(e, fill)
		ops++
		if ref == nil {
			ref = fill.stdout
		} else if !bytes.Equal(fill.stdout, ref) {
			r.op(fmt.Sprintf("cycle %d fill disagrees with the first fill on stdout", cyc))
		}
		for i := 0; i < z.warmPerCycle; i++ {
			args := z.quickArgs("-exp", "all", "-jobs", "1", "-cache", dir)
			if tr != nil && i == 0 {
				args = append(args, "-runreport=json")
			}
			w := e.run(ctx, nil, args...)
			r.op(w.problem())
			warms.add(e, w)
			ops++
			if !bytes.Equal(w.stdout, ref) {
				r.op(fmt.Sprintf("cycle %d warm pass %d disagrees with the fill on stdout", cyc, i))
			}
			if tr != nil && i == 0 {
				tr.warmReport = w.stderr
			}
		}
		v := e.run(ctx, nil, "-cache", dir, "-cache-verify")
		ops++
		verify := ""
		if v.err != nil || v.exit != 0 {
			verify = fmt.Sprintf("-cache-verify: exit %d: %s", v.exit, lastLines(v.stderr, 2))
		}
		r.op(verify)
		if tr != nil {
			tr.cacheBytes = dirBytes(dir)
			tr.fillSys = fill.sys
			tr.rssMB = max(fill.rssMB, maxOf(warms.rss))
		}
		cleanup()
	}
	end := time.Now()
	span := e.ref(end.Sub(start).Seconds(), start, end)

	// Untimed identity check: cold-through-cache and warm-from-cache stdout
	// against the no-cache warm-up pass, all at quick scale.
	if dir, cleanup, err := e.tempDir("cacheq"); err != nil {
		r.op(err.Error())
	} else {
		for _, what := range []string{"cold", "warm"} {
			c := e.run(ctx, nil, "-quick", "-exp", "all", "-jobs", "1", "-cache", dir)
			p := c.problem()
			if p == "" && !bytes.Equal(c.stdout, quickRef) {
				p = "quick " + what + " pass through the cache differs from the no-cache pass"
			}
			r.op(p)
		}
		cleanup()
	}

	r.set("wall_s", median(fills.wall), "s", len(fills.wall))
	r.set("cpu_s", median(fills.cpu), "s", len(fills.cpu))
	r.set("fast_p50_ms", median(warms.wall)*1e3, "ms", len(warms.wall))
	r.set("slow_p50_ms", median(fills.wall)*1e3, "ms", len(fills.wall))
	r.set("ops_per_s", float64(ops)/span, "1/s", ops)
	r.set("setup_s", median(setup), "s", len(setup))
	r.exact["sim_digest"] = digest(ref)
	r.info = append(r.info, fmt.Sprintf("fills: raw wall_s %.3f  peak_rss_mb %.0f; warm passes: raw p50 %.1f ms, peak_rss_mb max %.0f",
		fills.raw, fills.rss, median(warms.raw)*1e3, maxOf(warms.rss)), hostLine(e, start, end))
	return r
}
