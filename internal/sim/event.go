package sim

import "iter"

// The scheduler. Group.Run executes the whole gang inside the calling
// goroutine: each processor body is a resumable continuation (an iter.Pull
// coroutine), a rendezvous primitive suspends the running continuation
// instead of blocking a host thread, and a min-heap of (virtual time, rank)
// events decides which processor resumes next. Every heap key derives from
// virtual time, so the schedule itself is deterministic — host load and
// GOMAXPROCS cannot reorder execution — and because exactly one continuation
// of a group runs at a time, the rendezvous primitives keep their state
// without locks and a resumed waiter never has to re-check why it woke.
//
// Nothing ever blocks on the host, so a deadlock is detected structurally
// rather than waited out: if the run queue is empty while unfinished
// processors remain, every one of them is suspended on a rendezvous that can
// never complete. The scheduler then poisons the suspended processor with
// the lowest rank — its primitive records a sticky *StallError naming who
// arrived — and repeats until the gang has unwound.

// evProc is one processor's continuation plus its scheduling state.
type evProc struct {
	p    *Proc
	s    *evSched
	next func() (struct{}, bool) // resume the continuation
	// yield suspends the continuation; valid only while the body runs.
	yield func(struct{}) bool

	key    Time       // heap key while queued: the virtual time it resumes at
	on     rendezvous // what the proc is suspended on in block(); nil otherwise
	done   bool       // body returned (pp records an escaped panic)
	poison *StallError
	pp     *ProcPanic
}

// rendezvous is what a proc can be suspended on. stallInfo is invoked by the
// deadlock detector: it must mark the primitive as stalled and return the
// sticky *StallError to poison the proc with.
type rendezvous interface{ stallInfo() *StallError }

// block parks p on the wait queue *q of on and suspends its continuation
// until a wake, or until the deadlock detector poisons it, in which case
// block panics with the *StallError. The caller must not hold a host lock
// across block: the whole gang shares one goroutine, so nobody could release
// it. A Proc that no Run is executing has no continuation to suspend;
// blocking it is a caller bug.
func (p *Proc) block(q *[]*evProc, on rendezvous) {
	ep := p.ev
	if ep == nil {
		panic("sim: rendezvous outside Group.Run")
	}
	*q = append(*q, ep)
	ep.on = on
	if !ep.yield(struct{}{}) {
		panic("sim: scheduler stopped mid-run")
	}
	ep.on = nil
	if err := ep.poison; err != nil {
		ep.poison = nil
		panic(err)
	}
}

// wake schedules a blocked proc to resume at virtual time at. Waking an
// already-finished proc is a no-op, so primitives may hold stale wait-queue
// entries from an unwound episode without corrupting the schedule.
func (ep *evProc) wake(at Time) {
	if ep.done {
		return
	}
	ep.s.push(ep, at)
}

// evSched is the scheduler state of one Group: the continuation of every
// proc and the runnable min-heap ordered by (key, rank). The slices persist
// across Runs; the continuations are created fresh each Run.
type evSched struct {
	eps  []*evProc
	heap []*evProc
}

func evLess(a, b *evProc) bool {
	return a.key < b.key || (a.key == b.key && a.p.id < b.p.id)
}

func (s *evSched) push(ep *evProc, key Time) {
	ep.key = key
	h := append(s.heap, ep)
	s.heap = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *evSched) pop() *evProc {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	s.heap = h
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && evLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && evLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// poisonLowest is the structural deadlock detector: called when the run
// queue is empty but unfinished procs remain, it picks the blocked proc with
// the lowest rank, stamps it with the primitive's sticky StallError, and
// reschedules it so the panic unwinds its body.
func (s *evSched) poisonLowest() {
	for _, ep := range s.eps {
		if ep.on != nil {
			ep.poison = ep.on.stallInfo()
			s.push(ep, ep.p.clock)
			return
		}
	}
	panic("sim: scheduler: no runnable or blocked procs in a live gang")
}

// Run executes body once per processor and returns when all have finished.
// This is the SPMD entry point: body receives the Proc it owns and may use it
// with any of the model runtimes. Run is not safe for concurrent use on the
// same Group (the Procs are single-owner); sequential Runs reuse the group's
// scheduler state.
//
// If any body panics, Run lets the rest of the gang unwind (participants
// blocked on the dead rank are poisoned by the deadlock detector) and then
// re-panics with a *ProcPanic on the calling goroutine.
func (g *Group) Run(body func(p *Proc)) {
	s := &g.sched
	s.eps = s.eps[:0]
	for _, p := range g.procs {
		ep := &evProc{p: p, s: s}
		ep.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			ep.yield = yield
			ep.pp = runBody(p, body)
		})
		p.ev = ep
		s.eps = append(s.eps, ep)
		s.push(ep, p.clock)
	}
	// Always unbind on the way out: a Proc outside Run has nothing to suspend.
	defer func() {
		for _, p := range g.procs {
			p.ev = nil
		}
	}()
	for live := len(s.eps); live > 0; {
		if len(s.heap) == 0 {
			s.poisonLowest()
		}
		ep := s.pop()
		if _, more := ep.next(); !more {
			ep.done = true
			live--
		}
	}
	var first *ProcPanic
	for _, ep := range s.eps {
		if ep.pp != nil && preferRootCause(ep.pp, first) {
			first = ep.pp
		}
	}
	if first != nil {
		panic(first)
	}
}

// preferRootCause reports whether pp should replace first as the panic Run
// re-raises. The choice is deterministic: a non-stall panic beats a
// StallError (stalls are downstream symptoms of the real failure), then the
// lowest rank wins.
func preferRootCause(pp, first *ProcPanic) bool {
	if first == nil {
		return true
	}
	isStall := func(v any) bool { _, ok := v.(*StallError); return ok }
	return (isStall(first.Value) && !isStall(pp.Value)) ||
		(isStall(first.Value) == isStall(pp.Value) && pp.Rank < first.Rank)
}
