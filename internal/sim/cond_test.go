package sim

import (
	"sync"
	"testing"
)

// TestCondPoisonKeepsCallerLockInvariant: when the deadlock detector poisons
// a proc suspended in Cond.Wait, the caller's mutex must be
// re-held before the *StallError unwinds. Real callers hold that mutex
// across Wait with a deferred Unlock (mp's mailbox.take, sas's Lock.Acquire),
// so a panic with the lock released would escalate into Go's unrecoverable
// "unlock of unlocked mutex" fatal — aborting the process instead of
// surfacing the documented *ProcPanic. Regression test for exactly that
// crash: under the broken unwind this test kills the whole test binary.
func TestCondPoisonKeepsCallerLockInvariant(t *testing.T) {
	g := NewGroup(2)
	var mu sync.Mutex
	cond := Cond{Kind: "test wait"}
	v := mustPanic(t, func() {
		g.Run(func(p *Proc) {
			if p.ID() == 1 {
				return // never broadcasts: proc 0 can only stall
			}
			mu.Lock()
			defer mu.Unlock() // fatal if Wait unwinds with mu released
			for {
				cond.Wait(p, &mu)
			}
		})
	})
	pp, ok := v.(*ProcPanic)
	if !ok {
		t.Fatalf("Run re-panicked with %T (%v), want *ProcPanic", v, v)
	}
	se, ok := pp.Value.(*StallError)
	if !ok {
		t.Fatalf("panic value %T (%v), want *StallError", pp.Value, pp.Value)
	}
	if pp.Rank != 0 || se.Kind != "test wait" {
		t.Fatalf("stall = rank %d %+v, want rank 0 kind %q", pp.Rank, se, "test wait")
	}
}

// TestCondBroadcastWakesEventWaiter: the healthy path — a Cond waiter
// resumes after Broadcast with the lock re-held and the
// predicate satisfied, no stall involved.
func TestCondBroadcastWakesEventWaiter(t *testing.T) {
	g := NewGroup(2)
	var mu sync.Mutex
	var cond Cond
	ready := false
	g.Run(func(p *Proc) {
		mu.Lock()
		defer mu.Unlock()
		if p.ID() == 1 {
			ready = true
			cond.Broadcast()
			return
		}
		for !ready {
			cond.Wait(p, &mu)
		}
	})
	if !ready {
		t.Fatal("waiter resumed without the predicate set")
	}
}
