package sim

import "fmt"

// episode is the rendezvous state Barrier and Reducer share: n participants
// arrive, the last one closes the episode and releases the others at the
// maximum entry clock plus cost(n) (plus a per-participant penalty), and
// everyone charges the wait to PhaseSync. It needs no lock — the scheduler
// runs one processor of a group at a time (see event.go) — and a waiter is
// resumed exactly once, by the release or by the deadlock detector, so there
// is nothing to re-check on wake-up.
type episode struct {
	kind string // "barrier" or "reducer", for stall diagnostics
	n    int
	cost func(n int) Time

	maxT    Time        // latest entry clock of the open episode
	arrived []int       // ranks (or slots) in the open episode
	waiting []*evProc   // its suspended participants
	relT    Time        // release time of the episode that last closed
	pen     []Time      // its per-rank penalties (indexed by Proc.ID), or nil
	stall   *StallError // sticky: a stalled rendezvous stays broken
}

// arrive enters p into the open episode as participant id and reports
// whether it is the last one. A late arrival at a stalled rendezvous must
// not wait: the episode is unrecoverable and the group is unwinding.
func (e *episode) arrive(p *Proc, id int) (last bool) {
	if e.stall != nil {
		panic(e.stall)
	}
	e.maxT = Max(e.maxT, p.clock)
	e.arrived = append(e.arrived, id)
	return len(e.arrived) == e.n
}

// await suspends p until the episode closes; if it never can, p panics with
// the *StallError the deadlock detector poisons it with.
func (e *episode) await(p *Proc) { p.block(&e.waiting, e) }

// release closes the episode, run by its last arriver: it fixes the release
// time, opens the next episode and reschedules every suspended participant
// at its own release time, which keeps the event heap ordered by virtual
// time.
func (e *episode) release(pen []Time) {
	e.relT = e.maxT
	if e.cost != nil {
		e.relT += e.cost(e.n)
	}
	e.pen = pen
	e.maxT = 0
	e.arrived = e.arrived[:0]
	for _, ep := range e.waiting {
		ep.wake(e.releaseTime(ep.p))
	}
	e.waiting = e.waiting[:0]
}

// releaseTime is when p leaves the episode that last closed. No participant
// can close the next one before every participant of this one has left, so
// relT and pen are still this episode's when a woken waiter reads them.
func (e *episode) releaseTime(p *Proc) Time {
	if p.id < len(e.pen) {
		return e.relT + e.pen[p.id]
	}
	return e.relT
}

// leave advances p to its release time, charged to PhaseSync.
func (e *episode) leave(p *Proc) {
	prev := p.SetPhase(PhaseSync)
	p.AdvanceTo(e.releaseTime(p))
	p.SetPhase(prev)
}

// stallInfo marks the open episode as stalled and returns the sticky error.
// Idempotent: every participant poisoned during the unwind receives the same
// error.
func (e *episode) stallInfo() *StallError {
	if e.stall == nil {
		e.stall = &StallError{Kind: e.kind, N: e.n, Arrived: append([]int(nil), e.arrived...)}
	}
	return e.stall
}

// Barrier is a reusable (cyclic) barrier that also merges virtual clocks:
// every participant leaves at the maximum entry time plus a configurable
// cost. Wait time is charged to PhaseSync.
//
// A Barrier is shared by the processors of one Group. If the participant
// count of an episode can no longer reach n, all arrived participants panic
// with a *StallError instead of waiting forever.
type Barrier struct {
	episode
	hook func() []Time
}

// NewBarrier creates a barrier for n participants. cost maps the group size
// to the virtual latency of one barrier episode; nil means a free barrier.
func NewBarrier(n int, cost func(n int) Time) *Barrier {
	return NewBarrierHook(n, cost, nil)
}

// NewBarrierHook is NewBarrier with a rendezvous hook: hook runs exactly once
// per barrier episode, by the last arriver, while every other participant is
// still blocked — the safe point for cross-processor state merges (coherence,
// put-completion). It may return a per-participant virtual-time penalty
// (indexed by Proc.ID) added to each participant's release time, or nil.
func NewBarrierHook(n int, cost func(n int) Time, hook func() []Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{episode: episode{kind: "barrier", n: n, cost: cost}, hook: hook}
}

// Wait blocks until all n participants have arrived, then advances p's clock
// to max(entry clocks) + cost(n) (+ any hook penalty). The advance is charged
// to PhaseSync. If the episode stalls, Wait panics with a *StallError instead
// of blocking forever.
func (b *Barrier) Wait(p *Proc) {
	if b.arrive(p, p.id) {
		var pen []Time
		if b.hook != nil {
			pen = b.hook()
		}
		b.release(pen)
	} else {
		b.await(p)
	}
	b.leave(p)
}

// Reducer merges one value per participant at a barrier-like rendezvous and
// hands every participant the combined result. It is the building block for
// deterministic cross-processor reductions: values are combined in rank
// order, so floating-point results are identical on every run. Episodes
// stall like Barrier's.
type Reducer struct {
	episode
	slots  []any
	result any
}

// NewReducer creates a rendezvous reducer for n participants with the given
// virtual cost function (nil means free).
func NewReducer(n int, cost func(n int) Time) *Reducer {
	if n <= 0 {
		panic("sim: reducer size must be positive")
	}
	return &Reducer{episode: episode{kind: "reducer", n: n, cost: cost}, slots: make([]any, n)}
}

// Do deposits v for rank p.ID(), waits for all participants, and returns
// combine(slots...) evaluated once, in rank order, by the last arriver.
// Clocks merge exactly as in Barrier.Wait; time is charged to PhaseSync.
//
// p's rank must lie in [0, n): a processor outside the reducer's rank range
// is a caller bug (it would silently overwrite another rank's slot) and
// panics, matching NewGroup/NewBarrier validation. Participants whose
// logical rank legitimately differs from their processor ID use DoAs.
func (r *Reducer) Do(p *Proc, v any, combine func(vals []any) any) any {
	if p.id < 0 || p.id >= r.n {
		panic(fmt.Sprintf("sim: proc %d joined a %d-participant reducer (rank out of range; use DoAs for explicit slots)", p.id, r.n))
	}
	return r.DoAs(p, p.id, v, combine)
}

// DoAs is Do with an explicit slot index, for participants whose logical
// rank differs from their processor ID (e.g. per-node representatives in a
// hybrid program). slot must lie in [0, n).
func (r *Reducer) DoAs(p *Proc, slot int, v any, combine func(vals []any) any) any {
	if slot < 0 || slot >= r.n {
		panic(fmt.Sprintf("sim: slot %d out of range for %d-participant reducer", slot, r.n))
	}
	last := r.arrive(p, slot)
	r.slots[slot] = v
	if last {
		r.result = combine(r.slots)
		r.release(nil)
	} else {
		r.await(p)
	}
	r.leave(p)
	return r.result
}
