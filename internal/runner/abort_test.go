package runner

// Per-request cancellation semantics (DESIGN.md §5.7): a requester leaving
// an in-flight cell drops its reference; the last reference leaving aborts
// the compute and, in the same critical section, retires the cell, so the
// next request recomputes from scratch — while a cell any other live
// request still wants survives its first requester's departure untouched.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// doCtx requests a memory-only cell with no dependencies under ctx.
func doCtx(ctx context.Context, e *Engine, key string, compute Compute) (any, error) {
	return e.DoCell(ctx, Cell{Key: key, Label: "cell", Prepare: Ready(compute)})
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRequestCancelAbortsAndRetiresCell(t *testing.T) {
	e := New(2)
	var count atomic.Int32
	blocking := func(ctx context.Context) (any, error) {
		count.Add(1)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := doCtx(ctx, e, "k", blocking)
		errc <- err
	}()
	waitFor(t, "compute to start", func() bool { return count.Load() == 1 })

	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner got %v, want a context.Canceled chain", err)
	}
	// The aborted outcome is withdrawn by the time the last requester has
	// left: no memoized error, no report row.
	if got := e.Report().Unique; got != 0 {
		t.Fatalf("Unique = %d right after the last requester left, want 0", got)
	}

	// A fresh request recomputes as if the key had never been asked for.
	v, err := doCtx(context.Background(), e, "k", func(ctx context.Context) (any, error) {
		count.Add(1)
		return 42, nil
	})
	if err != nil || v.(int) != 42 {
		t.Fatalf("recompute after retirement: v=%v err=%v", v, err)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (abort + recompute)", got)
	}
	if rep := e.Report(); rep.Unique != 1 || rep.Failures != 0 {
		t.Fatalf("report after recompute: unique=%d failures=%d, want 1/0", rep.Unique, rep.Failures)
	}
}

// TestAbortedKeyDoesNotWaitForItsPublisher: retirement happens when the last
// requester leaves, not when the aborted publisher returns. The publisher
// here is stuck in a Prepare that ignores its context, yet the key is free
// at once and a fresh request computes its own value.
func TestAbortedKeyDoesNotWaitForItsPublisher(t *testing.T) {
	e := New(2)
	gate, started := make(chan struct{}), make(chan struct{})
	defer close(gate)
	stuck := func(context.Context) (Compute, error) {
		close(started)
		<-gate
		return func(context.Context) (any, error) { return "stale", nil }, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.DoCell(ctx, Cell{Key: "k", Label: "cell", Prepare: stuck})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester got %v, want a context.Canceled chain", err)
	}
	if got := e.Report().Unique; got != 0 {
		t.Fatalf("Unique = %d right after the last requester left, want 0", got)
	}

	type out struct {
		v   any
		err error
	}
	res := make(chan out, 1)
	go func() {
		v, err := doCtx(context.Background(), e, "k", func(context.Context) (any, error) { return "fresh", nil })
		res <- out{v, err}
	}()
	select {
	case r := <-res:
		if r.err != nil || r.v != "fresh" {
			t.Fatalf("fresh request got v=%v err=%v, want fresh", r.v, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fresh request of an aborted key waited for the aborted publisher")
	}
}

func TestSecondWaiterKeepsCellAliveWhenFirstLeaves(t *testing.T) {
	e := New(2)
	gate := make(chan struct{})
	var count atomic.Int32
	compute := func(ctx context.Context) (any, error) {
		count.Add(1)
		select {
		case <-gate:
			return "ok", nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := doCtx(ctxA, e, "k", compute)
		errA <- err
	}()
	waitFor(t, "owner to start", func() bool { return count.Load() == 1 })

	type out struct {
		v   any
		err error
	}
	resB := make(chan out, 1)
	go func() {
		v, err := doCtx(context.Background(), e, "k", compute)
		resB <- out{v, err}
	}()
	// B is registered once the in-flight cell shows a dedup request.
	waitFor(t, "second waiter to register", func() bool {
		rep := e.Report()
		return len(rep.Cells) == 1 && rep.Cells[0].Dedups >= 1
	})

	// A leaves; B's reference keeps the compute alive.
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want a context.Canceled chain", err)
	}
	close(gate)
	b := <-resB
	if b.err != nil || b.v.(string) != "ok" {
		t.Fatalf("surviving waiter got v=%v err=%v, want ok", b.v, b.err)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	// The cell completed normally: memoized, not retired.
	if _, err := e.Do("k", "cell", compute); err != nil {
		t.Fatalf("memo hit after survival: %v", err)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("memo hit recomputed: %d runs", got)
	}
}

// TestAbortedCellNeverTakesAFreedSlot: a cell whose last requester has left
// never computes, even when its publisher reaches the worker pool with a
// slot free — the moment at which a select between the slot and the abort
// could pick either. Cell A holds the only slot while cell B's Prepare waits
// on a gate; B's only request leaves (B is aborted), A finishes and frees the
// slot, and only then does the gate open. Each round uses a fresh engine.
func TestAbortedCellNeverTakesAFreedSlot(t *testing.T) {
	bg := context.Background()
	for round := range 50 {
		e := New(1)
		aStarted, aRelease, aDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			_, err := doCtx(bg, e, "a", func(context.Context) (any, error) {
				close(aStarted)
				<-aRelease
				return 1, nil
			})
			aDone <- err
		}()
		<-aStarted

		var ran atomic.Bool
		events := make(chan Event, 1)
		ctx, cancel := context.WithCancel(WithRequestHook(bg, func(ev Event) { events <- ev }))
		bPreparing, gate, bDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			_, err := e.DoCell(ctx, Cell{Key: "b", Label: "b", Prepare: func(context.Context) (Compute, error) {
				close(bPreparing)
				<-gate
				return func(context.Context) (any, error) { ran.Store(true); return 2, nil }, nil
			}})
			bDone <- err
		}()
		<-bPreparing
		cancel()
		if err := <-bDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: B's cancelled request got %v", round, err)
		}
		close(aRelease)
		if err := <-aDone; err != nil {
			t.Fatalf("round %d: A failed: %v", round, err)
		}
		// A slot is freed by its compute goroutine after the cell published,
		// so wait for it: before the gate opens, so B finds the slot free, and
		// after B's event, so a compute B started has returned.
		drained := func() {
			for len(e.sem) != 0 {
				runtime.Gosched()
			}
		}
		drained()
		close(gate)
		ev := <-events
		drained()
		if ran.Load() {
			t.Fatalf("round %d: the aborted cell B computed in the slot A freed", round)
		}
		if ev.Kind != EventCompute || !strings.Contains(ev.Err, ErrCellAborted.Error()) {
			t.Fatalf("round %d: B's event is %v %q, want a compute event failed with %q", round, ev.Kind, ev.Err, ErrCellAborted)
		}
	}
}

func TestEngineCancelOutcomesAreNotRetired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := Open(ctx, Config{Jobs: 2})
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := doCtx(context.Background(), e, "k", func(cctx context.Context) (any, error) {
			close(started)
			<-cctx.Done()
			return nil, context.Cause(cctx)
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("engine cancel surfaced %v", err)
	}
	// Engine-wide cancellation keeps the outcome (the CLI's FAILED(cancelled)
	// rendering depends on it): the cell stays in the report, err and all.
	// The requester can unblock before the publisher finishes publishing, so
	// poll for the completed snapshot.
	waitFor(t, "cancelled outcome to publish", func() bool {
		rep := e.Report()
		return rep.Unique == 1 && rep.Failures == 1
	})
}

func TestRequestHookSeesOnlyItsOwnEvents(t *testing.T) {
	e := New(2)
	collect := func(dst *[]Event) (Hook, *[]Event) {
		return func(ev Event) { *dst = append(*dst, ev) }, dst
	}
	var evA, evB []Event
	hookA, _ := collect(&evA)
	hookB, _ := collect(&evB)

	ctxA := WithRequestHook(context.Background(), hookA)
	if _, err := doCtx(ctxA, e, "k", func(ctx context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	ctxB := WithRequestHook(context.Background(), hookB)
	if _, err := doCtx(ctxB, e, "k", nil); err != nil {
		t.Fatal(err)
	}

	if len(evA) != 1 || evA[0].Kind != EventCompute {
		t.Fatalf("request A saw %v, want exactly one compute event", evA)
	}
	if len(evB) != 1 || evB[0].Kind != EventMemoHit {
		t.Fatalf("request B saw %v, want exactly one memo-hit event", evB)
	}
}
