package runner

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// leasedEngine builds an engine whose disk cache and lease manager share dir,
// as one worker process of a fleet would.
func leasedEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return Open(context.Background(), Config{Jobs: 2, Cache: openCache(t, dir), Leases: lease.New(lease.Config{Dir: dir})})
}

// TestLeaseCrossEngineSingleFlight is the in-process model of two worker
// processes hitting the same cold cell: exactly one pays for the compute, the
// other adopts the committed entry off disk.
func TestLeaseCrossEngineSingleFlight(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/shared", 1)
	var computes atomic.Int64
	compute := func(context.Context) (any, error) {
		computes.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the lease long enough to collide
		return 7, nil
	}

	e1 := leasedEngine(t, dir)
	e2 := leasedEngine(t, dir)

	var wg sync.WaitGroup
	vals := make([]any, 2)
	errs := make([]error, 2)
	for i, e := range []*Engine{e1, e2} {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			vals[i], errs[i] = e.DoCached(key, "cell", testCodec, compute)
		}(i, e)
	}
	wg.Wait()

	for i := range vals {
		if errs[i] != nil || vals[i].(int) != 7 {
			t.Fatalf("engine %d: %v, %v", i, vals[i], errs[i])
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1 (cross-process single-flight)", n)
	}
	r1, r2 := e1.Report(), e2.Report()
	if r1.Lease == nil || r2.Lease == nil {
		t.Fatal("reports lack lease stats despite an attached manager")
	}
	if got := r1.Lease.Acquired + r2.Lease.Acquired; got != 1 {
		t.Fatalf("total leases acquired = %d, want 1", got)
	}
	if got := r1.DiskHits + r2.DiskHits; got != 1 {
		t.Fatalf("total disk adoptions = %d, want 1 (the waiter's)", got)
	}
}

// TestLeaseFaultsStillComputeCells pins the degradation invariant one level
// up: with every lease lock failing, DoCached still computes and returns the
// value — leases are an economy, never a correctness gate.
func TestLeaseFaultsStillComputeCells(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected")
	ffs := diskcache.NewFaultFS(nil)
	ffs.MatchPath(".lease")
	ffs.FailLocks(boom)

	e := Open(context.Background(), Config{Jobs: 2, Cache: openCache(t, dir), Leases: lease.New(lease.Config{Dir: dir, FS: ffs})})
	v, err := e.DoCached(core.CellKey("test/degraded", 1), "cell", testCodec,
		func(context.Context) (any, error) { return 11, nil })
	if err != nil || v.(int) != 11 {
		t.Fatalf("DoCached under total lease failure = %v, %v; want the computed value", v, err)
	}
	if r := e.Report(); r.Lease == nil || r.Lease.Degraded == 0 {
		t.Fatalf("report lease stats = %+v, want Degraded > 0", r.Lease)
	}
	// The entry must still have been committed (cache path is healthy).
	e2 := cachedEngine(t, dir)
	recomputed := false
	if _, err := e2.DoCached(core.CellKey("test/degraded", 1), "cell", testCodec,
		func(context.Context) (any, error) { recomputed = true; return 11, nil }); err != nil {
		t.Fatal(err)
	}
	if recomputed {
		t.Fatal("degraded compute did not commit its entry")
	}
}

// Leases without a cache have nothing to coordinate: Open drops them, so a
// memory-only engine takes no lease and reports none.
func TestLeasesWithoutCacheAreIgnored(t *testing.T) {
	dir := t.TempDir()
	e := Open(context.Background(), Config{Jobs: 1, Leases: lease.New(lease.Config{Dir: dir})})
	v, err := e.DoCell(context.Background(), Cell{Key: core.CellKey("test/solo", 1), Label: "cell", Codec: testCodec,
		Prepare: Ready(func(context.Context) (any, error) { return 5, nil })})
	if err != nil || v.(int) != 5 {
		t.Fatalf("got %v, %v; want 5", v, err)
	}
	if rep := e.Report(); rep.Lease != nil {
		t.Fatalf("a memory-only engine reports leases: %+v", rep.Lease)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("a memory-only engine left %d files in the lease directory", len(files))
	}
}
