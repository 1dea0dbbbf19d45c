package mp

import (
	"testing"
	"time"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// TestRecvDeadlockStallDiagnostics: a Recv whose matching Send never comes is
// the Cond-flavored stall — no barrier episode, no participant roster, just a
// proc suspended on a mailbox that can never fill. The test pins two things:
// the scheduler's deadlock detector diagnoses it as a *StallError with the
// mailbox's "mp recv" kind on the lowest blocked rank, and the poison unwinds
// through mailbox.take's deferred mutex unlock as an ordinary *ProcPanic
// rather than a "sync: unlock of unlocked mutex" runtime fatal that would
// abort the whole process.
func TestRecvDeadlockStallDiagnostics(t *testing.T) {
	m := machine.MustNew(machine.Default(2))
	w := NewWorld(m)
	g := sim.NewGroup(2)
	var v any
	start := time.Now()
	func() {
		defer func() { v = recover() }()
		g.Run(func(p *sim.Proc) {
			r := w.Rank(p)
			if r.ID() == 0 {
				Recv[int](r, 1, 0) // rank 1 never sends
			}
		})
	}()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Run took %v to report a deadlock it proves from an empty run queue", d)
	}
	pp, ok := v.(*sim.ProcPanic)
	if !ok {
		t.Fatalf("Run re-panicked with %T (%v), want *ProcPanic", v, v)
	}
	se, ok := pp.Value.(*sim.StallError)
	if !ok {
		t.Fatalf("panic value %T (%v), want *StallError", pp.Value, pp.Value)
	}
	if pp.Rank != 0 || se.Kind != "mp recv" {
		t.Fatalf("stall = rank %d kind %q, want rank 0 kind %q", pp.Rank, se.Kind, "mp recv")
	}
	if se.N != 0 || len(se.Arrived) != 0 {
		t.Fatalf("mailbox stall should carry no roster, got N=%d arrived=%v", se.N, se.Arrived)
	}
}
