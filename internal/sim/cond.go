package sim

import "sync"

// Cond is the scheduler's condition variable, for model runtimes that need
// to suspend a processor until another processor changes shared state (a
// message arrives in a mailbox, a lock is released). Wait suspends the
// processor's continuation, so the scheduler goroutine itself never blocks.
//
// The zero value is ready to use. The discipline is the standard library
// condition variable's: all methods must be called with the lock held that
// guards the predicate; Wait is handed that lock because it releases it while
// the processor is suspended.
//
// A processor suspended here when the gang can make no further progress is
// poisoned by the deadlock detector with a *StallError whose Kind is the
// Cond's label.
type Cond struct {
	// Kind labels stall diagnostics for procs suspended on this Cond,
	// e.g. "mp recv"; empty reads as "wait".
	Kind    string
	waiting []*evProc
}

// Wait atomically releases l and suspends p until Broadcast; l is re-held
// on return. The caller must re-check its predicate in a loop.
func (c *Cond) Wait(p *Proc, l sync.Locker) {
	l.Unlock()
	// Re-acquire l however the wait ends: callers hold l across Wait
	// (typically with a deferred Unlock), so a stall panic unwinding with l
	// released would become an unrecoverable "unlock of unlocked mutex"
	// runtime fatal.
	defer l.Lock()
	p.block(&c.waiting, c)
}

// Broadcast wakes all suspended processors, each at its own virtual clock:
// unlike a barrier release, a state change here imposes no clock merge by
// itself — the woken processor re-checks its predicate and charges whatever
// cost its runtime defines.
func (c *Cond) Broadcast() {
	for _, ep := range c.waiting {
		ep.wake(ep.p.clock)
	}
	c.waiting = c.waiting[:0]
}

// stallInfo synthesizes the poison error for a proc wedged on this Cond.
// There is no participant roster to report, so N and Arrived stay zero.
func (c *Cond) stallInfo() *StallError {
	kind := c.Kind
	if kind == "" {
		kind = "wait"
	}
	return &StallError{Kind: kind}
}
