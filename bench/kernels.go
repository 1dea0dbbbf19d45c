package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/machine"
	"o2k/internal/mesh"
	"o2k/internal/mp"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/obs"
	"o2k/internal/partition"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
	"o2k/internal/sas"
	"o2k/internal/server"
	"o2k/internal/shm"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// Kernels price one exported entry point of one layer each. They have the
// shapes of the layers' own bench_test.go files, re-expressed here because
// _test files cannot be imported; _p64/_p512 is the gang size. Iteration
// counts are fixed (so a metric always averages the same work) and sized for
// a few milliseconds a round; the metric is the median round.

// kernels is the harness: name, unit, iteration count, and a self-timed body
// returning the time of the hot part alone and how many ops it covered.
type kernels struct {
	z   sizing
	tr  *tracer
	set func(name string, v float64, unit string, n int)
}

var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

func (k *kernels) run(name, unit string, iters int, body func(n int) (time.Duration, int)) {
	n := iters / k.z.iters
	if n < 1 {
		n = 1
	}
	var v []float64
	for r := 0; r < k.z.rounds; r++ {
		k.tr.do(name, "kernel", func() {
			d, ops := body(n)
			v = append(v, float64(d)/float64(ops)/unitNS[unit])
		})
	}
	k.set(name, median(v), unit, len(v))
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func mach(procs int) *machine.Machine { return machine.MustNew(machine.Default(procs)) }

func simKernels(k *kernels) {
	for _, p := range []int{64, 512} {
		k.run(fmt.Sprintf("machine.new_us_p%d", p), "us", 1000*64/p, func(n int) (time.Duration, int) {
			return timed(func() {
				for i := 0; i < n; i++ {
					machine.MustNew(machine.Default(p))
				}
			}), n
		})
		// Per proc per episode on the event engine: every proc parks on the
		// barrier and the scheduler wakes all of them again.
		k.run(fmt.Sprintf("sim.barrier_ns_p%d", p), "ns", 300*64/p, func(n int) (time.Duration, int) {
			g := sim.NewGroupOn(sim.EventEngine(), p)
			bar := sim.NewBarrier(p, func(n int) sim.Time { return sim.Time(n) })
			return timed(func() {
				g.Run(func(pr *sim.Proc) {
					for i := 0; i < n; i++ {
						bar.Wait(pr)
					}
				})
			}), n * p
		})
		k.run(fmt.Sprintf("sim.group_run_us_p%d", p), "us", 150*64/p, func(n int) (time.Duration, int) {
			return timed(func() {
				for i := 0; i < n; i++ {
					sim.NewGroupOn(sim.EventEngine(), p).Run(func(*sim.Proc) {})
				}
			}), n
		})
	}
	k.run("sim.reducer_ns_p64", "ns", 300, func(n int) (time.Duration, int) {
		g := sim.NewGroupOn(sim.EventEngine(), 64)
		red := sim.NewReducer(64, func(n int) sim.Time { return sim.Time(n) })
		first := func(vals []any) any { return vals[0] }
		return timed(func() {
			g.Run(func(pr *sim.Proc) {
				for i := 0; i < n; i++ {
					red.Do(pr, i, first)
				}
			})
		}), n * 64
	})
	k.run("sim.cond_pingpong_ns", "ns", 20000, func(n int) (time.Duration, int) {
		g := sim.NewGroupOn(sim.EventEngine(), 2)
		var mu sync.Mutex
		var cv sim.Cond
		turn := 0
		return timed(func() {
			g.Run(func(pr *sim.Proc) {
				me := pr.ID()
				mu.Lock()
				defer mu.Unlock()
				for i := 0; i < n; i++ {
					for turn != me {
						cv.Wait(pr, &mu)
					}
					turn = 1 - me
					cv.Broadcast()
				}
			})
		}), n
	})
}

func numaKernels(k *kernels) {
	one := func() (*numa.Space, *sim.Proc) { return numa.NewSpace(mach(1)), sim.NewGroup(1).Proc(0) }
	k.run("numa.load_hit_ns", "ns", 2_000_000, func(n int) (time.Duration, int) {
		sp, p := one()
		a := numa.NewPrivate[float64](sp, 0, 1024)
		a.Load(p, 0)
		return timed(func() {
			for i := 0; i < n; i++ {
				a.Load(p, 0)
			}
		}), n
	})
	k.run("numa.load_stream_ns", "ns", 1_000_000, func(n int) (time.Duration, int) {
		sp, p := one()
		a := numa.NewPrivate[float64](sp, 0, 1<<16)
		return timed(func() {
			for i := 0; i < n; i++ {
				a.Load(p, i&(1<<16-1))
			}
		}), n
	})
	k.run("numa.store_shared_ns", "ns", 500_000, func(n int) (time.Duration, int) {
		sp := numa.NewSpace(mach(4))
		p := sim.NewGroup(4).Proc(0)
		a := numa.NewShared[float64](sp, 1<<16)
		return timed(func() {
			for i := 0; i < n; i++ {
				a.Store(p, i&(1<<16-1), 1)
			}
		}), n
	})
	k.run("numa.touch_range_ns_per_line", "ns", 5000, func(n int) (time.Duration, int) {
		sp, p := one()
		a := numa.NewPrivate[float64](sp, 0, 1<<16)
		lines := (1 << 12) * 8 / sp.M.Cfg.LineBytes
		return timed(func() {
			for i := 0; i < n; i++ {
				a.TouchRange(p, 0, 1<<12, false)
			}
		}), n * lines
	})
	// A walk-shaped trace: a cell read then a burst of leaf loads, the
	// barnes force phase's hot loop.
	k.run("numa.replay_loads_ns", "ns", 300, func(n int) (time.Duration, int) {
		sp, p := one()
		x := numa.NewPrivate[float64](sp, 0, 4096)
		y := numa.NewPrivate[float64](sp, 0, 4096)
		m := numa.NewPrivate[float64](sp, 0, 4096)
		cl := numa.NewPrivate[float64](sp, 0, 3*512)
		var tr []int32
		for c := 0; c < 512; c++ {
			tr = append(tr, int32(^c))
			for j := 0; j < 6; j++ {
				tr = append(tr, int32((c*11+j*3)%4096))
			}
		}
		cx, cy, cm, cc := x.Cursor(p), y.Cursor(p), m.Cursor(p), cl.Cursor(p)
		d := timed(func() {
			for i := 0; i < n; i++ {
				numa.ReplayLoads(tr, &cx, &cy, &cm, &cc)
			}
		})
		cx.Flush()
		cy.Flush()
		cm.Flush()
		cc.Flush()
		return d, n * len(tr)
	})
	k.run("numa.gather_idx_ns_per_elem", "ns", 200, func(n int) (time.Duration, int) {
		sp, p := one()
		a := numa.NewPrivate[float64](sp, 0, 1<<16)
		idx := make([]int32, 4096)
		for i := range idx {
			idx[i] = int32(i * 37 % (1 << 16))
		}
		out := make([]float64, len(idx))
		return timed(func() {
			for i := 0; i < n; i++ {
				a.GatherIdx(p, idx, out)
			}
		}), n * len(idx)
	})
	// The coherence merge with disjoint per-proc write blocks; only the
	// merge is timed, the stores that feed it are not.
	for _, procs := range []int{64, 512} {
		k.run(fmt.Sprintf("numa.merge_epoch_us_p%d", procs), "us", 100*64/procs, func(n int) (time.Duration, int) {
			sp := numa.NewSpace(mach(procs))
			g := sim.NewGroup(procs)
			a := numa.NewShared[float64](sp, procs*4096)
			var d time.Duration
			for i := 0; i < n; i++ {
				for q := 0; q < procs; q++ {
					p := g.Proc(q)
					for j := 0; j < 64; j++ {
						a.Store(p, q*4096+j*8, 1)
					}
				}
				d += timed(func() { sp.MergeEpoch() })
			}
			return d, n
		})
	}
}

func runtimeKernels(k *kernels) {
	k.run("mp.pingpong_ns", "ns", 5000, func(n int) (time.Duration, int) {
		w, g := mp.NewWorld(mach(2)), sim.NewGroup(2)
		payload := make([]float64, 64)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				r := w.Rank(p)
				for i := 0; i < n; i++ {
					if r.ID() == 0 {
						mp.Send(r, 1, 0, payload)
						mp.Recv[float64](r, 1, 1)
					} else {
						mp.Recv[float64](r, 0, 0)
						mp.Send(r, 0, 1, payload)
					}
				}
			})
		}), n
	})
	k.run("mp.allreduce_us_p64", "us", 200, func(n int) (time.Duration, int) {
		w, g := mp.NewWorld(mach(64)), sim.NewGroup(64)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				r := w.Rank(p)
				for i := 0; i < n; i++ {
					mp.Allreduce1(r, float64(i), mp.OpSum)
				}
			})
		}), n
	})
	k.run("mp.alltoallv_us_p64", "us", 4, func(n int) (time.Duration, int) {
		w, g := mp.NewWorld(mach(64)), sim.NewGroup(64)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				r := w.Rank(p)
				chunks := make([][]float64, 64)
				for d := range chunks {
					chunks[d] = make([]float64, 32)
				}
				for i := 0; i < n; i++ {
					mp.Alltoallv(r, chunks)
				}
			})
		}), n
	})

	shmWorld := func(procs int) (*shm.World, *sim.Group) {
		m := mach(procs)
		return shm.NewWorld(m, numa.NewSpace(m)), sim.NewGroup(procs)
	}
	k.run("shm.put_ns", "ns", 200_000, func(n int) (time.Duration, int) {
		w, g := shmWorld(2)
		s := shm.AllocWorld[float64](w, 4096)
		payload := make([]float64, 64)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				if pe := w.PE(p); pe.ID() == 0 {
					for i := 0; i < n; i++ {
						shm.Put(pe, s, 1, 0, payload)
					}
				}
			})
		}), n
	})
	k.run("shm.get_ns", "ns", 50_000, func(n int) (time.Duration, int) {
		w, g := shmWorld(2)
		s := shm.AllocWorld[float64](w, 4096)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				if pe := w.PE(p); pe.ID() == 0 {
					for i := 0; i < n; i++ {
						shm.Get[float64](pe, s, 1, 0, 64)
					}
				}
			})
		}), n
	})
	k.run("shm.putidx_ns_per_elem", "ns", 3000, func(n int) (time.Duration, int) {
		w, g := shmWorld(2)
		s := shm.AllocWorld[float64](w, 4096)
		idx := make([]int32, 128)
		vals := make([]float64, 128)
		for i := range idx {
			idx[i] = int32((i * 37) % 4096)
			vals[i] = float64(i)
		}
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				if pe := w.PE(p); pe.ID() == 0 {
					for i := 0; i < n; i++ {
						shm.PutIdx(pe, s, 1, idx, vals)
					}
				}
			})
		}), n * len(idx)
	})
	// One episode: every PE puts to its neighbour, then the barrier merges
	// the put spans into the targets' caches.
	for _, procs := range []int{64, 512} {
		k.run(fmt.Sprintf("shm.barrier_merge_us_p%d", procs), "us", 200*64/procs, func(n int) (time.Duration, int) {
			w, g := shmWorld(procs)
			s := shm.AllocWorld[float64](w, 16*procs)
			payload := make([]float64, 16)
			return timed(func() {
				g.Run(func(p *sim.Proc) {
					pe := w.PE(p)
					for i := 0; i < n; i++ {
						shm.Put(pe, s, (pe.ID()+1)%procs, pe.ID()*16, payload)
						pe.Barrier()
					}
				})
			}), n
		})
	}

	sasWorld := func(procs int) (*sas.World, *sim.Group) {
		m := mach(procs)
		return sas.NewWorld(m, numa.NewSpace(m)), sim.NewGroup(procs)
	}
	// One episode: every proc dirties lines of its block, then the barrier
	// runs the coherence merge.
	for _, procs := range []int{64, 512} {
		k.run(fmt.Sprintf("sas.barrier_coh_us_p%d", procs), "us", 30*64/procs, func(n int) (time.Duration, int) {
			w, g := sasWorld(procs)
			a := sas.NewArray[float64](w, 1024*procs)
			a.PlaceBlock()
			return timed(func() {
				g.Run(func(p *sim.Proc) {
					c := w.Ctx(p)
					lo, hi := c.Range(1024 * procs)
					for i := 0; i < n; i++ {
						for v := lo; v < hi; v += 16 {
							a.Store(p, v, float64(i))
						}
						c.Barrier()
					}
				})
			}), n
		})
	}
	k.run("sas.lock_handoff_ns", "ns", 50_000, func(n int) (time.Duration, int) {
		w, g := sasWorld(4)
		l := sas.NewLock(w)
		return timed(func() {
			g.Run(func(p *sim.Proc) {
				c := w.Ctx(p)
				for i := 0; i < n; i++ {
					l.Acquire(c)
					l.Release(c)
				}
			})
		}), 4 * n
	})
}

func benchMesh() *mesh.Mesh {
	f := mesh.NewUnitSquare(12, 3)
	f.Adapt(mesh.DefaultFront(3).At(0))
	return f.Snapshot()
}

func substrateKernels(k *kernels) {
	k.run("mesh.adapt_ms", "ms", 3, func(n int) (time.Duration, int) {
		front := mesh.DefaultFront(3)
		return timed(func() {
			for i := 0; i < n; i++ {
				f := mesh.NewUnitSquare(16, 3)
				for c := 0; c < 3; c++ {
					f.Adapt(front.At(c))
				}
			}
		}), n
	})
	k.run("mesh.snapshot_ms", "ms", 10, func(n int) (time.Duration, int) {
		f := mesh.NewUnitSquare(16, 3)
		f.Adapt(mesh.DefaultFront(3).At(0))
		return timed(func() {
			for i := 0; i < n; i++ {
				f.Snapshot()
			}
		}), n
	})

	rng := rand.New(rand.NewSource(1))
	const pts = 20000
	xs, ys, wt := make([]float64, pts), make([]float64, pts), make([]float64, pts)
	for i := range xs {
		xs[i], ys[i], wt[i] = rng.Float64(), rng.Float64(), 1
	}
	k.run("partition.rcb_ms_p64", "ms", 3, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				partition.RCB(xs, ys, wt, 64)
			}
		}), n
	})
	k.run("partition.newdecomp_ms_p64", "ms", 20, func(n int) (time.Duration, int) {
		m := benchMesh()
		cx, cy, cw := make([]float64, m.NumTris()), make([]float64, m.NumTris()), make([]float64, m.NumTris())
		for t := range cx {
			cx[t], cy[t] = m.Centroid(t)
			cw[t] = 1
		}
		part := partition.RCB(cx, cy, cw, 64)
		return timed(func() {
			for i := 0; i < n; i++ {
				partition.NewDecomp(m, part, 64)
			}
		}), n
	})
	for _, p := range []int{64, 512} {
		k.run(fmt.Sprintf("partition.remap_ms_p%d", p), "ms", 20, func(n int) (time.Duration, int) {
			old, fresh := make([]int32, pts), make([]int32, pts)
			for i := range old {
				old[i] = int32(i * p / pts)
				fresh[i] = int32(((i + pts/p) % pts) * p / pts)
			}
			return timed(func() {
				for i := 0; i < n; i++ {
					partition.Remap(old, fresh, wt, p)
				}
			}), n
		})
	}

	k.run("nbody.build_ms", "ms", 10, func(n int) (time.Duration, int) {
		b := nbody.NewPlummer(4096, 1)
		return timed(func() {
			for i := 0; i < n; i++ {
				nbody.Build(b)
			}
		}), n
	})
	k.run("nbody.step_ms", "ms", 3, func(n int) (time.Duration, int) {
		b := nbody.NewPlummer(2048, 1)
		ax, ay, inter := make([]float64, 2048), make([]float64, 2048), make([]int, 2048)
		return timed(func() {
			for i := 0; i < n; i++ {
				nbody.Step(b, nbody.Build(b), nbody.ThetaBH, ax, ay, inter)
			}
		}), n
	})
	k.run("nbody.costzones_ms", "ms", 20, func(n int) (time.Duration, int) {
		b := nbody.NewPlummer(4096, 1)
		cost := make([]float64, 4096)
		for i := range cost {
			cost[i] = float64(i%97 + 1)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				nbody.CostZones(b, cost, 16)
			}
		}), n
	})
	k.run("solver.reference_ms", "ms", 50, func(n int) (time.Duration, int) {
		m := benchMesh()
		u := make([]float64, m.NumVertsTotal())
		for i := range u {
			u[i] = float64(i % 7)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				solver.Reference(m, u, 8)
			}
		}), n
	})
}

// hostKernels price the layers between a cell and its requester: keys and
// codecs, the memo engine, the disk cache, leases, table assembly, the
// observability hook, and the HTTP front end (in-process, httptest).
func hostKernels(ctx context.Context, k *kernels, e *env, met core.Metrics) error {
	cfg, mw := machine.Default(64), adaptmesh.Default()
	k.run("core.cellkey_us", "us", 2000, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				core.CellKey("mesh/run", core.SAS, cfg, mw)
			}
		}), n
	})
	enc, err := core.EncodeMetrics(met)
	if err != nil {
		return err
	}
	k.run("core.encode_metrics_us", "us", 2000, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				core.EncodeMetrics(met)
			}
		}), n
	})
	k.run("core.decode_metrics_us", "us", 1000, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				core.DecodeMetrics(enc)
			}
		}), n
	})

	value := func(context.Context) (any, error) { return met, nil }
	for _, hooked := range []bool{false, true} {
		name := "runner.memo_hit_ns"
		if hooked {
			name = "runner.memo_hit_hooked_ns"
		}
		k.run(name, "ns", 200_000, func(n int) (time.Duration, int) {
			eng := runner.New(1)
			if hooked {
				eng.SetHook(func(runner.Event) {})
			}
			key := core.CellKey("bench/memo")
			eng.Do(key, "memo", value)
			return timed(func() {
				for i := 0; i < n; i++ {
					eng.Do(key, "memo", value)
				}
			}), n
		})
	}
	// The fixed per-cell cost of a miss with nothing to compute: Task
	// Bench's overhead term. Multiply by runner.unique_cells for the
	// overhead share of a workload.
	k.run("runner.miss_overhead_us", "us", 2000, func(n int) (time.Duration, int) {
		eng := runner.New(1)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = core.CellKey("bench/miss", i)
		}
		return timed(func() {
			for _, key := range keys {
				eng.DoCached(key, "miss", runner.MetricsCodec, value)
			}
		}), n
	})

	dir, cleanup, err := e.tempDir("kernels")
	if err != nil {
		return err
	}
	defer cleanup()
	dc, err := diskcache.Open(dir)
	if err != nil {
		return err
	}
	for _, size := range []struct {
		tag   string
		bytes int
		puts  int
	}{{"8k", 8 << 10, 200}, {"1m", 1 << 20, 20}} {
		payload := []byte(strings.Repeat("0123456789abcdef", size.bytes/16))
		var keys []string
		k.run("diskcache.put_us_"+size.tag, "us", size.puts, func(n int) (time.Duration, int) {
			keys = keys[:0]
			for i := 0; i < n; i++ {
				keys = append(keys, core.CellKey("bench/disk", size.tag, i))
			}
			return timed(func() {
				for _, key := range keys {
					dc.Put(key, payload)
				}
			}), n
		})
		k.run("diskcache.get_us_"+size.tag, "us", 2*size.puts, func(n int) (time.Duration, int) {
			return timed(func() {
				for i := 0; i < n; i++ {
					dc.Get(keys[i%len(keys)])
				}
			}), n
		})
	}
	k.run("diskcache.verify_ms", "ms", 3, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				dc.Verify()
			}
		}), n
	})
	k.run("lease.acquire_release_us", "us", 200, func(n int) (time.Duration, int) {
		lm := lease.New(lease.Config{Dir: dir})
		keys := make([]string, n)
		for i := range keys {
			keys[i] = core.CellKey("bench/lease", i)
		}
		return timed(func() {
			for _, key := range keys {
				if l, st := lm.Acquire(key); st == lease.Acquired {
					l.Release()
				}
			}
		}), n
	})

	// Table assembly and rendering on a fully memo-warm engine, at quick
	// scale (warming a full-scale engine in-process is a ~9 s pass).
	qo := experiments.QuickOpts()
	warmEng := runner.New(1)
	tables := experiments.RunAllCtx(ctx, warmEng, qo)
	k.run("experiments.assemble_ms", "ms", 5, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				experiments.RunAllCtx(ctx, warmEng, qo)
			}
		}), n
	})
	k.run("experiments.render_ms", "ms", 100, func(n int) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n; i++ {
				experiments.Render(tables)
			}
		}), n
	})

	k.run("obs.collector_event_ns", "ns", 50_000, func(n int) (time.Duration, int) {
		hook := new(obs.Collector).Hook()
		ev := runner.Event{Kind: runner.EventMemoHit, Key: "k", Label: "l", Start: time.Now()}
		return timed(func() {
			for i := 0; i < n; i++ {
				hook(ev)
			}
		}), n
	})
	k.run("obs.chrome_build_ms", "ms", 3, func(n int) (time.Duration, int) {
		qw := qo.MeshW
		g := adaptmesh.TraceRun(core.MP, mach(16), qw, adaptmesh.BuildPlans(qw, 16))
		col := new(obs.Collector)
		col.Hook()(runner.Event{Kind: runner.EventCompute, Key: "k", Label: "l", Start: time.Now(), Dur: time.Millisecond})
		return timed(func() {
			for i := 0; i < n; i++ {
				b := obs.NewBuilder()
				b.AddTimeline("mesh/mp", g)
				b.AddRunnerTrack(col.Events())
				b.Write(io.Discard)
			}
		}), n
	})

	srvEng := runner.New(1)
	ts := httptest.NewServer(server.New(server.Config{Engine: srvEng}))
	defer ts.Close()
	cl := ts.Client()
	fetch := func(method, path, body string) error {
		req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}
	cellURL := cellPath("mesh", "mp", 16, true)
	if err := fetch("POST", "/v1/experiments", postBody); err != nil {
		return err
	}
	if err := fetch("GET", cellURL, ""); err != nil {
		return err
	}
	var ferr error
	loop := func(n int, method, path, body string) (time.Duration, int) {
		return timed(func() {
			for i := 0; i < n && ferr == nil; i++ {
				ferr = fetch(method, path, body)
			}
		}), n
	}
	k.run("server.cell_warm_us", "us", 1000, func(n int) (time.Duration, int) { return loop(n, "GET", cellURL, "") })
	k.run("server.post_warm_ms", "ms", 30, func(n int) (time.Duration, int) { return loop(n, "POST", "/v1/experiments", postBody) })
	k.run("server.metrics_scrape_us", "us", 300, func(n int) (time.Duration, int) { return loop(n, "GET", "/metrics", "") })
	return ferr
}
