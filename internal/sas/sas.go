// Package sas is the cache-coherent shared-address-space (CC-SAS)
// programming-model runtime: the one the Origin2000's hardware coherence
// supports natively. Processors read and write shared arrays directly; the
// only explicit operations are synchronization (barriers, locks) and
// reductions.
//
// Cost structure: loads and stores of shared data are charged through the
// numa package's cache-and-placement model — a cache hit costs nanoseconds,
// a miss costs local or remote memory latency depending on where the page is
// homed, and lines written by one processor are invalidated in the others'
// caches at the next barrier (release-consistent epoch coherence; see package
// numa). There is no per-transfer software overhead at all, which is exactly
// why CC-SAS excels at fine-grained irregular sharing, and no explicit data
// migration at repartitioning time, which is why its locality can degrade
// after adaptation — the trade-off the paper's experiments explore.
package sas

import (
	"fmt"
	"sync"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// World is the shared context of one CC-SAS program.
type World struct {
	M  *machine.Machine
	Sp *numa.Space

	barrier *sim.Barrier
	reducer *sim.Reducer
}

// NewWorld creates the CC-SAS context for all processors of m over space sp.
// Its barrier performs the coherence merge for every shared array in sp.
func NewWorld(m *machine.Machine, sp *numa.Space) *World {
	w := &World{M: m, Sp: sp}
	// Barrier cost depends only on the fixed gang size; hoist it out of the
	// per-episode closure. (Table 5 counts this file: a checked-in table
	// verified by TestTable5CountsItsSources.)
	stages := m.LogStages(m.Procs())
	barrierNS := m.Cfg.SasBarrierBase + sim.Time(stages)*m.Cfg.SasBarrierHop
	cost := func(int) sim.Time { return barrierNS }
	w.barrier = sim.NewBarrierHook(m.Procs(), cost, sp.MergeEpoch)
	w.reducer = sim.NewReducer(m.Procs(), cost)
	return w
}

// Ctx binds processor p to the world.
func (w *World) Ctx(p *sim.Proc) *Ctx {
	if p.ID() < 0 || p.ID() >= w.M.Procs() {
		panic(fmt.Sprintf("sas: proc %d outside world of size %d", p.ID(), w.M.Procs()))
	}
	return &Ctx{W: w, P: p}
}

// Ctx is one processor's handle on the shared address space.
type Ctx struct {
	W *World
	P *sim.Proc
}

// ID returns the processor rank.
func (c *Ctx) ID() int { return c.P.ID() }

// Size returns the processor count.
func (c *Ctx) Size() int { return c.W.M.Procs() }

// Barrier synchronizes all processors and resolves coherence for every
// shared array written since the previous barrier.
func (c *Ctx) Barrier() {
	c.P.Collectives++
	c.W.barrier.Wait(c.P)
}

// Range returns the static block [lo, hi) of n iterations assigned to this
// processor — the standard "owner computes" loop decomposition.
func (c *Ctx) Range(n int) (lo, hi int) {
	p, np := c.ID(), c.Size()
	lo, hi = p*n/np, (p+1)*n/np
	return lo, hi
}

// Lock is a costed mutual-exclusion lock over shared data. The virtual cost
// models an uncontended remote atomic; contention additionally serializes
// virtual time because acquirers merge clocks with the previous holder.
//
// Holding is tracked by a flag guarded by a briefly-held host mutex, with a
// sim.Cond for contended waits: no host lock is ever held across a
// suspension point, because one scheduler goroutine runs every processor and
// nobody else could release it.
type Lock struct {
	w       *World
	mu      sync.Mutex
	cond    sim.Cond
	held    bool
	release sim.Time // virtual time the last holder released
}

// NewLock creates a lock in world w.
func NewLock(w *World) *Lock { return &Lock{w: w, cond: sim.Cond{Kind: "sas lock"}} }

// Acquire takes the lock, charging the atomic cost and serializing with the
// previous holder's release time.
func (l *Lock) Acquire(c *Ctx) {
	prev := c.P.SetPhase(sim.PhaseSync)
	c.P.Advance(l.w.M.Cfg.SasLockNS)
	l.mu.Lock()
	for l.held {
		l.cond.Wait(c.P, &l.mu)
	}
	l.held = true
	c.P.AdvanceTo(l.release)
	l.mu.Unlock()
	c.P.SetPhase(prev)
	c.P.LockOps++
}

// Release drops the lock.
func (l *Lock) Release(c *Ctx) {
	l.mu.Lock()
	l.release = c.P.Now()
	l.held = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// NewArray allocates a shared array of n elements (pages default to home 0;
// place explicitly).
func NewArray[T any](w *World, n int) *numa.Array[T] {
	return numa.NewShared[T](w.Sp, n)
}

// --- Reductions --------------------------------------------------------------

// Number constrains reduction element types.
type Number interface {
	~int | ~int32 | ~int64 | ~uint64 | ~float64
}

// Op names a reduction's combining operator. The programs only sum, so
// OpSum is the one operator; the argument keeps a reduction reading the same
// under every model.
type Op int

// OpSum adds.
const OpSum Op = 0

// Allreduce1 sums v across processors in rank order — the shared-memory
// reduction tree. Its cost is the synchronization itself; the data passes
// through shared cache lines.
func Allreduce1[T Number](c *Ctx, v T, _ Op) T {
	c.P.Collectives++
	return c.W.reducer.Do(c.P, v, func(all []any) any {
		sum := all[0].(T)
		for _, x := range all[1:] {
			sum += x.(T)
		}
		return sum
	}).(T)
}

// Exscan returns, for each processor, the exclusive prefix sum of the
// per-processor contributions v (rank order) together with the global total.
// It is the deterministic idiom the applications use in place of racy shared
// counters when assigning index ranges.
func Exscan(c *Ctx, v int) (before, total int) {
	c.P.Collectives++
	res := c.W.reducer.Do(c.P, v, func(all []any) any {
		pre := make([]int, len(all)+1)
		for i, x := range all {
			pre[i+1] = pre[i] + x.(int)
		}
		return pre
	}).([]int)
	return res[c.ID()], res[len(res)-1]
}
