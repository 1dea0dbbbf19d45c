package sim

import (
	"fmt"
	"runtime/debug"
)

// Phase labels the activity that virtual time is attributed to. The set is
// shared by every application so that phase-breakdown figures are comparable
// across programming models.
type Phase uint8

// Phases of execution. Applications attribute time via Proc.SetPhase.
const (
	PhaseCompute   Phase = iota // numerical work (solver, force evaluation)
	PhaseComm                   // explicit communication (messages, puts/gets)
	PhaseSync                   // barriers, fences, locks, waiting
	PhaseMark                   // adaptive: error estimation + edge marking
	PhaseRefine                 // adaptive: structural refinement/coarsening
	PhasePartition              // repartitioning computation
	PhaseRemap                  // data migration after repartitioning
	PhaseTree                   // N-body: tree construction
	// NumPhases is the number of phases: the width of every per-phase array
	// (a Proc's attribution, a persisted Metrics, the timeline legend).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"compute", "comm", "sync", "mark", "refine", "partition", "remap", "tree",
}

// String returns the lowercase phase name.
func (ph Phase) String() string {
	if int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return fmt.Sprintf("phase(%d)", int(ph))
}

// Counters aggregates event counts on one simulated processor. They feed the
// traffic and memory-system tables of the evaluation.
type Counters struct {
	CacheHits    uint64 // loads/stores satisfied by the simulated cache
	LocalMisses  uint64 // misses homed on the local node
	RemoteMisses uint64 // misses homed on a remote node
	CohMisses    uint64 // misses caused by coherence invalidations
	BytesSent    uint64 // payload bytes pushed into the network
	MsgsSent     uint64 // point-to-point messages or one-sided transfers
	Collectives  uint64 // collective operations entered
	LockOps      uint64 // lock acquisitions
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.CacheHits += other.CacheHits
	c.LocalMisses += other.LocalMisses
	c.RemoteMisses += other.RemoteMisses
	c.CohMisses += other.CohMisses
	c.BytesSent += other.BytesSent
	c.MsgsSent += other.MsgsSent
	c.Collectives += other.Collectives
	c.LockOps += other.LockOps
}

// Proc is one simulated processor: a private virtual clock plus per-phase
// time attribution and event counters. During a Group.Run a Proc is owned by
// the continuation that runs its body; its methods are not safe for
// concurrent use by multiple goroutines.
type Proc struct {
	id        int
	clock     Time
	phase     Phase
	phaseTime [NumPhases]Time
	Counters

	// ev binds the proc to its continuation while a Run is in flight (nil
	// otherwise): what a rendezvous primitive suspends (see block).
	ev *evProc

	// Optional phase-timeline tracing (see Group.EnableTrace).
	tracing  bool
	trace    []Segment
	segStart Time
	segPhase Phase
}

// ID returns the processor's rank within its group, in [0, N).
func (p *Proc) ID() int { return p.id }

// Now returns the processor's current virtual time.
func (p *Proc) Now() Time { return p.clock }

// SetPhase switches time attribution to ph and returns the previous phase,
// enabling the idiom:
//
//	defer p.SetPhase(p.SetPhase(sim.PhaseComm))
func (p *Proc) SetPhase(ph Phase) Phase {
	prev := p.phase
	if ph != prev {
		p.phase = ph
		p.flushSegment()
	}
	return prev
}

// Advance charges d of virtual time to the current phase. Negative d panics:
// virtual clocks never run backwards.
//
// Advance runs once per costed memory access, so it must stay inlinable; the
// panic formatting lives in advanceNegative to keep it under the inliner
// budget.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		p.advanceNegative(d)
	}
	p.clock += d
	p.phaseTime[p.phase] += d
}

//go:noinline
func (p *Proc) advanceNegative(d Time) {
	panic(fmt.Sprintf("sim: proc %d advanced by negative time %d", p.id, d))
}

// AdvanceTo moves the clock forward to t if t is in the future, charging the
// gap to the current phase. It is a no-op when t is in the past: clock merges
// are conservative maxima.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.clock {
		p.Advance(t - p.clock)
	}
}

// PhaseTime reports the total virtual time attributed to ph so far.
func (p *Proc) PhaseTime(ph Phase) Time { return p.phaseTime[ph] }

// Group is a gang of simulated processors that execute one SPMD program
// (see Run, in event.go, for how).
type Group struct {
	procs []*Proc
	sched evSched // reused across Runs
}

// NewGroup creates n processors with zeroed clocks, ranked 0..n-1.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic("sim: group size must be positive")
	}
	g := &Group{procs: make([]*Proc, n)}
	for i := range g.procs {
		g.procs[i] = &Proc{id: i}
	}
	return g
}

// Engine, EventEngine and NewGroupOn are what is left of the time when a
// Group ran on one of two schedulers. The benchmark module (bench/kernels.go)
// is frozen between benchmark PRs and still spells NewGroup this way; nothing
// else may, and the three go when it moves to NewGroup (ROADMAP, "Ledger
// round 2").
//
// Deprecated: there is one scheduler.
type Engine struct{}

// Deprecated: there is one scheduler; see Engine.
func EventEngine() Engine { return Engine{} }

// Deprecated: use NewGroup; see Engine.
func NewGroupOn(_ Engine, n int) *Group { return NewGroup(n) }

// runBody runs body on p, converting an escaped panic into a *ProcPanic.
func runBody(p *Proc, body func(*Proc)) (pp *ProcPanic) {
	defer func() {
		if r := recover(); r != nil {
			pp = &ProcPanic{Rank: p.id, Value: r, Stack: debug.Stack()}
		}
	}()
	body(p)
	return nil
}

// Size returns the number of processors in the group.
func (g *Group) Size() int { return len(g.procs) }

// Proc returns processor i.
func (g *Group) Proc(i int) *Proc { return g.procs[i] }

// ProcPanic wraps a panic that escaped a processor body. Group.Run recovers
// it inside the body's continuation and re-raises it on its caller once the
// gang has unwound, so a bug in SPMD body code (or a StallError) surfaces
// where it can be handled — e.g. recovered by the experiment engine into a
// failed cell. When several processors panic, Run re-raises the root cause:
// a non-stall panic before a StallError, then the lowest rank.
type ProcPanic struct {
	Rank  int    // the processor whose body panicked
	Value any    // the original panic value
	Stack []byte // the body's stack at panic time
}

// PanicStack returns the body's stack at panic time: where the bug is, which
// the stack of whoever recovers the re-raised panic does not show.
func (e *ProcPanic) PanicStack() []byte { return e.Stack }

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %d panicked: %v", e.Rank, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *ProcPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// MaxTime returns the latest virtual clock in the group — the simulated
// wall-clock time of the parallel execution.
func (g *Group) MaxTime() Time {
	var m Time
	for _, p := range g.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// MaxPhaseTime returns, for each phase, the maximum per-processor time — the
// critical-path view used in phase-breakdown figures.
func (g *Group) MaxPhaseTime() [NumPhases]Time {
	var out [NumPhases]Time
	for _, p := range g.procs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			if p.phaseTime[ph] > out[ph] {
				out[ph] = p.phaseTime[ph]
			}
		}
	}
	return out
}

// TotalCounters sums event counters over all processors.
func (g *Group) TotalCounters() Counters {
	var c Counters
	for _, p := range g.procs {
		c.Add(&p.Counters)
	}
	return c
}
