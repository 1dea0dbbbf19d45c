package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/runner/diskcache"
)

// testCodec persists int cell values for the engine-level tests.
var testCodec = &Codec{
	Encode: func(v any) ([]byte, error) { return json.Marshal(v.(int)) },
	Decode: func(data []byte) (any, error) {
		var v int
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	},
}

func openCache(t *testing.T, dir string, opts ...diskcache.Option) *diskcache.Cache {
	t.Helper()
	dc, err := diskcache.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func cachedEngine(t *testing.T, dir string, opts ...diskcache.Option) *Engine {
	t.Helper()
	return Open(context.Background(), Config{Jobs: 2, Cache: openCache(t, dir, opts...)})
}

func TestDiskCachePersistsAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/persist", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; return 41, nil }

	e1 := cachedEngine(t, dir)
	if v, err := e1.DoCached(key, "cell", testCodec, compute); err != nil || v.(int) != 41 {
		t.Fatalf("cold run: %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}

	// A second engine over the same directory restores from disk.
	e2 := cachedEngine(t, dir)
	v, err := e2.DoCached(key, "cell", testCodec, compute)
	if err != nil || v.(int) != 41 {
		t.Fatalf("warm run: %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("warm run recomputed (computes = %d)", computes)
	}
	r := e2.Report()
	if r.DiskHits != 1 || r.Disk == nil || r.Disk.Hits != 1 {
		t.Fatalf("report disk stats = DiskHits=%d Disk=%+v, want one disk hit", r.DiskHits, r.Disk)
	}
	if len(r.Cells) != 1 || !r.Cells[0].FromDisk {
		t.Fatalf("cell stat not marked FromDisk: %+v", r.Cells)
	}
}

func TestDiskCacheUncodedCellsStayMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/plain", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; return 1, nil }

	e1 := cachedEngine(t, dir)
	e1.Do(key, "cell", compute) // nil codec: plan-style cell
	e2 := cachedEngine(t, dir)
	e2.Do(key, "cell", compute)
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (nil-codec cells must not persist)", computes)
	}
	if n, _ := e2.Cache().Len(); n != 0 {
		t.Fatalf("%d entries on disk for nil-codec cells", n)
	}
}

// A deterministic error persists across engines by recomputation, not by
// storage: a second engine over the same directory computes the cell again
// and returns the compute's own error, so the message, the label and the
// errors.Is chain all match the first engine's, and nothing is written.
func TestDiskCachePersistsDeterministicErrors(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/err", 1)
	computes := 0
	boom := errors.New("mesh exploded")
	compute := func(context.Context) (any, error) { computes++; return nil, boom }

	e1 := cachedEngine(t, dir)
	_, err1 := e1.DoCached(key, "cell", testCodec, compute)
	e2 := cachedEngine(t, dir)
	_, err2 := e2.DoCached(key, "cell", testCodec, compute)
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (a failure is recomputed, not restored)", computes)
	}
	if !errors.Is(err2, boom) {
		t.Fatalf("warm error = %T %v, want the compute's own error", err2, err2)
	}
	if FailLabel(err2) != FailLabel(err1) || FailLabel(err2) != "FAILED(mesh exploded)" {
		t.Fatalf("warm FailLabel %q != cold %q", FailLabel(err2), FailLabel(err1))
	}
	if err2.Error() != err1.Error() {
		t.Fatalf("warm message %q, want %q", err2.Error(), err1.Error())
	}
	if n, _ := e2.Cache().Len(); n != 0 {
		t.Fatalf("%d entries on disk for a failed cell, want 0", n)
	}
}

// A panic likewise persists only by recomputation: each engine recovers its
// own *PanicError with the same reason and renders the same label.
func TestDiskCachePersistsPanics(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/panic", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; panic("blew a gasket") }

	e1 := cachedEngine(t, dir)
	_, err1 := e1.DoCached(key, "cell", testCodec, compute)
	e2 := cachedEngine(t, dir)
	_, err2 := e2.DoCached(key, "cell", testCodec, compute)
	if computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}
	var pe *PanicError
	if !errors.As(err2, &pe) || pe.Reason != "blew a gasket" {
		t.Fatalf("warm error = %T %v, want a recovered *PanicError", err2, err2)
	}
	want := "FAILED(panic: blew a gasket)"
	if FailLabel(err1) != want || FailLabel(err2) != want {
		t.Fatalf("labels %q / %q, want %q", FailLabel(err1), FailLabel(err2), want)
	}
	if n, _ := e2.Cache().Len(); n != 0 {
		t.Fatalf("%d entries on disk for a panicked cell, want 0", n)
	}
}

// A timeout whose compute would later succeed, and a cell requested from an
// engine cancelled before it starts, leave nothing on disk either.
func TestDiskCacheSkipsEnvironmentalFailures(t *testing.T) {
	dir := t.TempDir()

	// Timeout: the outcome depends on the deadline, not the cell.
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := Open(context.Background(), Config{Jobs: 1, CellTimeout: 10 * time.Millisecond, Cache: dc})
	release := make(chan struct{})
	_, terr := e.DoCached(core.CellKey("test/slow", 1), "slow", testCodec,
		func(ctx context.Context) (any, error) { <-release; return 1, nil })
	close(release)
	if !errors.Is(terr, context.DeadlineExceeded) {
		t.Fatalf("timeout err = %v", terr)
	}

	// Cancellation, including a custom cause.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("operator stop"))
	e2 := Open(ctx, Config{Jobs: 1, Cache: dc})
	e2.DoCached(core.CellKey("test/cancelled", 1), "c", testCodec,
		func(context.Context) (any, error) { return 1, nil })

	if n, _ := dc.Len(); n != 0 {
		t.Fatalf("%d entries persisted for environmental failures, want 0", n)
	}
}

// No failure reaches the disk, whatever its kind: the simulator is
// deterministic, so a second engine over the same directory recomputes the
// cell and renders the very FAILED(…) entry the first one did.
func TestDiskCacheNeverPersistsFailures(t *testing.T) {
	cases := []struct {
		name    string
		timeout time.Duration
		compute func(ctx context.Context, cancel context.CancelCauseFunc) (any, error)
		want    string
	}{
		{"returned error", 0,
			func(context.Context, context.CancelCauseFunc) (any, error) { return nil, errors.New("mesh exploded") },
			"FAILED(mesh exploded)"},
		{"panic", 0,
			func(context.Context, context.CancelCauseFunc) (any, error) { panic("blew a gasket") },
			"FAILED(panic: blew a gasket)"},
		{"timeout", 10 * time.Millisecond,
			func(ctx context.Context, _ context.CancelCauseFunc) (any, error) { <-ctx.Done(); return nil, ctx.Err() },
			"FAILED(timeout)"},
		// A custom cause does not unwrap to context.Canceled. The compute
		// words its failure as the engine words a cancelled wait, so every
		// path to the outcome renders alike.
		{"custom-cause cancel", 0,
			func(ctx context.Context, cancel context.CancelCauseFunc) (any, error) {
				cancel(errors.New("operator stop"))
				return nil, fmt.Errorf("cell c: %w", context.Cause(ctx))
			},
			"FAILED(cell c: operator stop)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			labels := make([]string, 2)
			for i := range labels {
				dc, err := diskcache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancelCause(context.Background())
				defer cancel(nil)
				e := Open(ctx, Config{Jobs: 1, CellTimeout: tc.timeout, Cache: dc})
				_, err = e.DoCached(core.CellKey("test/fails", 1), "c", testCodec,
					func(cctx context.Context) (any, error) { return tc.compute(cctx, cancel) })
				labels[i] = FailLabel(err)
				if r := e.Report(); r.DiskHits != 0 {
					t.Fatalf("engine %d served the failure from disk", i+1)
				}
				if n, _ := dc.Len(); n != 0 {
					t.Fatalf("engine %d persisted %d entries for a failure, want 0", i+1, n)
				}
			}
			if labels[0] != tc.want || labels[1] != tc.want {
				t.Fatalf("labels %q / %q, want %q from both engines", labels[0], labels[1], tc.want)
			}
		})
	}
}

func TestDiskCacheCorruptPayloadRecomputes(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/corrupt-payload", 1)

	// Plant an entry whose envelope is valid but whose payload does not
	// decode as the cell's value — damage the checksum cannot see.
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Put(key, []byte(`{"neither":"val-nor-err"}`)); err != nil {
		t.Fatal(err)
	}

	computes := 0
	e := cachedEngine(t, dir)
	v, cerr := e.DoCached(key, "cell", testCodec,
		func(context.Context) (any, error) { computes++; return 7, nil })
	if cerr != nil || v.(int) != 7 || computes != 1 {
		t.Fatalf("corrupt payload not recomputed: v=%v err=%v computes=%d", v, cerr, computes)
	}
	cn := e.Cache().Counters()
	if cn.Corrupt != 1 {
		t.Fatalf("counters = %+v, want corrupt=1", cn)
	}
	// The recompute overwrote the bad entry; a fresh engine now hits.
	e2 := cachedEngine(t, dir)
	if v, err := e2.DoCached(key, "cell", testCodec,
		func(context.Context) (any, error) { computes++; return 7, nil }); err != nil || v.(int) != 7 || computes != 1 {
		t.Fatalf("rewritten entry not served: %v %v computes=%d", v, err, computes)
	}
}

func TestDiskCacheWriteFailuresDoNotAffectRun(t *testing.T) {
	ffs := diskcache.NewFaultFS(nil)
	ffs.FailWrites(errors.New("injected ENOSPC"))
	e := cachedEngine(t, t.TempDir(), diskcache.WithFS(ffs))

	key := core.CellKey("test/unwritable", 1)
	v, err := e.DoCached(key, "cell", testCodec, func(context.Context) (any, error) { return 9, nil })
	if err != nil || v.(int) != 9 {
		t.Fatalf("run affected by write failure: %v, %v", v, err)
	}
	if cn := e.Cache().Counters(); cn.PutErrs != 1 {
		t.Fatalf("counters = %+v, want put_errs=1", cn)
	}
	// Memoized in memory regardless.
	computes := 0
	if v, _ := e.DoCached(key, "cell", testCodec, func(context.Context) (any, error) { computes++; return 9, nil }); v.(int) != 9 || computes != 0 {
		t.Fatal("in-memory memoization broken under write failures")
	}
}

func TestDiskCacheReadFaultsDegradeToCompute(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/unreadable", 1)
	e1 := cachedEngine(t, dir)
	if _, err := e1.DoCached(key, "cell", testCodec, func(context.Context) (any, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}

	ffs := diskcache.NewFaultFS(nil)
	ffs.FailReads(errors.New("injected EIO"))
	e2 := cachedEngine(t, dir, diskcache.WithFS(ffs))
	computes := 0
	v, err := e2.DoCached(key, "cell", testCodec, func(context.Context) (any, error) { computes++; return 3, nil })
	if err != nil || v.(int) != 3 || computes != 1 {
		t.Fatalf("read fault not degraded to compute: %v %v computes=%d", v, err, computes)
	}
	r := e2.Report()
	if r.Disk == nil || r.Disk.ReadErrs != 1 || r.DiskHits != 0 {
		t.Fatalf("report disk stats = %+v DiskHits=%d", r.Disk, r.DiskHits)
	}
}
