package runner

// The Prepare stage (Cell.Prepare): dependencies are resolved only where the
// cell itself has to be computed — never on a memo hit, a disk hit or a
// foreign-lease adoption, once per owned miss however often the compute is
// retried — on the publisher goroutine, holding no worker slot, under the
// cell's compute context and the creating request's hook.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"o2k/internal/core"
)

// counted wraps compute as a Prepare stage that counts its calls.
func counted(n *atomic.Int32, compute Compute) Prepare {
	return func(context.Context) (Compute, error) {
		n.Add(1)
		return compute, nil
	}
}

func value(v any) Compute {
	return func(context.Context) (any, error) { return v, nil }
}

func TestPrepareRunsOnlyOnOwnedMiss(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/prepare", 1)
	var prepares atomic.Int32
	req := Cell{Key: key, Label: "cell", Codec: testCodec, Prepare: counted(&prepares, value(5))}

	e1 := cachedEngine(t, dir)
	for i := 0; i < 3; i++ { // one owned miss, then memo hits
		if v, err := e1.DoCell(context.Background(), req); err != nil || v.(int) != 5 {
			t.Fatalf("request %d: %v, %v", i, v, err)
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("Prepare ran %d times over a miss and two memo hits, want 1", n)
	}

	e2 := cachedEngine(t, dir) // disk hit
	if v, err := e2.DoCell(context.Background(), req); err != nil || v.(int) != 5 {
		t.Fatalf("warm request: %v, %v", v, err)
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("Prepare ran on a disk hit (%d calls)", n)
	}
	if r := e2.Report(); r.DiskHits != 1 {
		t.Fatalf("warm report: DiskHits=%d, want 1", r.DiskHits)
	}
}

// A process that adopts a foreign lease owner's committed entry never
// prepares: the owner paid for the dependencies.
func TestPrepareSkippedOnForeignLeaseAdoption(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/prepare-adopt", 1)
	e1 := leasedEngine(t, dir, "host:1:aaaaaaaa")
	e2 := leasedEngine(t, dir, "host:2:bbbbbbbb")

	var ownerPrepares, adopterPrepares atomic.Int32
	holding, gate := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, err := e1.DoCell(context.Background(), Cell{Key: key, Label: "cell", Codec: testCodec,
			Prepare: counted(&ownerPrepares, func(context.Context) (any, error) {
				close(holding) // computing under the lease
				<-gate
				return 7, nil
			})})
		ownerDone <- err
	}()
	<-holding

	adopted := make(chan error, 1)
	go func() {
		v, err := e2.DoCell(context.Background(), Cell{Key: key, Label: "cell", Codec: testCodec,
			Prepare: counted(&adopterPrepares, value(7))})
		if err == nil && v.(int) != 7 {
			err = fmt.Errorf("adopted %v, want 7", v)
		}
		adopted <- err
	}()
	// The adopter is polling the busy lease once its cell is in flight.
	waitFor(t, "adopter to wait on the lease", func() bool { return e2.Report().Unique == 1 })
	close(gate)
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-adopted; err != nil {
		t.Fatal(err)
	}
	if o, a := ownerPrepares.Load(), adopterPrepares.Load(); o != 1 || a != 0 {
		t.Fatalf("Prepare calls: owner %d, adopter %d; want 1, 0", o, a)
	}
	if r := e2.Report(); r.DiskHits != 1 {
		t.Fatalf("adopter report: DiskHits=%d, want 1", r.DiskHits)
	}
}

// dependent is a cell whose Prepare requests dep from e under the prepare
// context, then computes from its value.
func dependent(e *Engine, key string, prepares *atomic.Int32, dep Cell) Cell {
	return Cell{Key: key, Label: key, Prepare: func(ctx context.Context) (Compute, error) {
		prepares.Add(1)
		d, err := e.DoCell(ctx, dep)
		if err != nil {
			return nil, fmt.Errorf("dep: %w", err)
		}
		return value(d.(int) + 1), nil
	}}
}

// Prepare holds no worker slot: on a one-slot engine whose slot is taken, a
// cell whose Prepare needs another cell computed still completes once the
// slot frees. Were Prepare to run inside the slot, dep could never start.
func TestPrepareNestedRequestOnContendedSingleSlot(t *testing.T) {
	e := New(1)
	holding, gate := make(chan struct{}), make(chan struct{})
	go e.Do("hog", "hog", func(context.Context) (any, error) { close(holding); <-gate; return nil, nil })
	<-holding

	var prepares atomic.Int32
	res := make(chan error, 1)
	go func() {
		v, err := e.DoCell(context.Background(), dependent(e, "run", &prepares, Cell{Key: "dep", Label: "dep", Prepare: Ready(value(1))}))
		if err == nil && v.(int) != 2 {
			err = fmt.Errorf("run = %v, want 2", v)
		}
		res <- err
	}()
	// run's Prepare is now waiting on dep, which is waiting for the slot.
	waitFor(t, "dep to be requested", func() bool { return e.Report().Unique == 3 })
	close(gate)
	select {
	case err := <-res:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested request deadlocked the one-slot pool")
	}
}

func TestPrepareCancelRetiresCellAndAbortsNestedWait(t *testing.T) {
	e := New(2)
	var prepares, depRuns atomic.Int32
	gate := make(chan struct{})
	dep := Cell{Key: "dep", Label: "dep", Prepare: Ready(func(ctx context.Context) (any, error) {
		depRuns.Add(1)
		select {
		case <-gate:
			return 1, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	})}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.DoCell(ctx, dependent(e, "run", &prepares, dep))
		errc <- err
	}()
	waitFor(t, "dep to start", func() bool { return depRuns.Load() == 1 })

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester got %v, want a context.Canceled chain", err)
	}
	// The run cell's abort cancels the prepare context, which drops the only
	// reference on dep: both are retired, neither is memoized as failed.
	waitFor(t, "run and dep to retire", func() bool { return e.Report().Unique == 0 })

	close(gate)
	v, err := e.DoCell(context.Background(), dependent(e, "run", &prepares, dep))
	if err != nil || v.(int) != 2 {
		t.Fatalf("recompute after retirement: %v, %v", v, err)
	}
	if p, d := prepares.Load(), depRuns.Load(); p != 2 || d != 2 {
		t.Fatalf("prepares=%d dep runs=%d, want 2 and 2 (abort + recompute)", p, d)
	}
	if r := e.Report(); r.Unique != 2 || r.Failures != 0 {
		t.Fatalf("report after recompute: unique=%d failures=%d, want 2/0", r.Unique, r.Failures)
	}
}

func TestPrepareNestedEventsReachRequestHook(t *testing.T) {
	e := New(2)
	var prepares atomic.Int32
	run := dependent(e, "run", &prepares, Cell{Key: "dep", Label: "dep", Prepare: Ready(value(1))})

	logA, logB := &eventLog{}, &eventLog{}
	if _, err := e.DoCell(WithRequestHook(context.Background(), logA.hook), run); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DoCell(WithRequestHook(context.Background(), logB.hook), run); err != nil {
		t.Fatal(err)
	}
	// The creating request sees the dependency it caused, then its own cell —
	// so the last event of a single-cell request is still that cell's.
	if evs := logA.evs; len(evs) != 2 || evs[0].Key != "dep" || evs[1].Key != "run" ||
		evs[0].Kind != EventCompute || evs[1].Kind != EventCompute {
		t.Fatalf("creating request saw %+v, want dep compute then run compute", evs)
	}
	// A memo hit instantiates nothing below it.
	if evs := logB.evs; len(evs) != 1 || evs[0].Key != "run" || evs[0].Kind != EventMemoHit {
		t.Fatalf("second request saw %+v, want exactly run's memo hit", evs)
	}
}

func TestPrepareErrorIsMemoizedNotPersisted(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/prepare-fails", 1)
	e := cachedEngine(t, dir)
	e.Do("dep", "dep", func(context.Context) (any, error) { return nil, errors.New("injected fault") })

	var prepares atomic.Int32
	run := dependent(e, key, &prepares, Cell{Key: "dep", Label: "dep", Prepare: Ready(value(1))})
	run.Codec = testCodec
	for i := 0; i < 2; i++ {
		_, err := e.DoCell(context.Background(), run)
		if err == nil || err.Error() != "dep: injected fault" {
			t.Fatalf("request %d: err = %v, want the dependency's failure", i, err)
		}
		// The rendering is the dependency's failure behind the dependency's
		// name — what the eager wrapErr path printed.
		if got := FailLabel(err); got != "FAILED(dep: injected fault)" {
			t.Fatalf("FailLabel = %q", got)
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("Prepare ran %d times, want 1 (its error is memoized)", n)
	}
	if r := e.Report(); r.Failures != 2 { // dep and run
		t.Fatalf("Failures = %d, want 2", r.Failures)
	}

	// Nothing reached the disk: a fresh engine whose dependency is healthy
	// prepares and computes.
	e2 := cachedEngine(t, dir)
	run2 := dependent(e2, key, &prepares, Cell{Key: "dep", Label: "dep", Prepare: Ready(value(1))})
	run2.Codec = testCodec
	if v, err := e2.DoCell(context.Background(), run2); err != nil || v.(int) != 2 {
		t.Fatalf("fresh engine: %v, %v", v, err)
	}
	if r := e2.Report(); r.DiskHits != 0 || prepares.Load() != 2 {
		t.Fatalf("the Prepare failure was persisted: DiskHits=%d prepares=%d", r.DiskHits, prepares.Load())
	}

	// A panicking Prepare is an outcome too, not a crashed publisher.
	_, err := e2.DoCell(context.Background(), Cell{Key: "p", Label: "p",
		Prepare: func(context.Context) (Compute, error) { panic("kaboom") }})
	var pe *PanicError
	if !errors.As(err, &pe) || FailLabel(err) != "FAILED(panic: kaboom)" {
		t.Fatalf("panicking Prepare: err = %v", err)
	}
}
