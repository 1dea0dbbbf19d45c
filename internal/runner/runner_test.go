package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ok is a compute adapter for cells that cannot fail.
func ok(v any) func(context.Context) (any, error) {
	return func(context.Context) (any, error) { return v, nil }
}

func TestDoMemoizes(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := e.Do("k", "k", func(context.Context) (any, error) { calls.Add(1); return 42, nil })
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do returned %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	r := e.Report()
	if r.Unique != 1 || r.Hits != 4 || r.Requests != 5 || r.Failures != 0 {
		t.Fatalf("report = %+v", r)
	}
}

func TestDoSingleFlight(t *testing.T) {
	e := New(4)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Do("slow", "slow", func(context.Context) (any, error) {
				<-gate // hold the cell in flight until everyone has asked
				calls.Add(1)
				return "done", nil
			})
			if err != nil || v.(string) != "done" {
				t.Errorf("Do returned %v, %v", v, err)
			}
		}()
	}
	// Wait until the dedup count shows every non-owner is parked, then
	// release the one running compute.
	for e.Report().Dedups != waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("in-flight cell computed %d times, want 1", calls.Load())
	}
}

func TestJobsDefaultsPositive(t *testing.T) {
	if New(0).jobs < 1 || New(-3).jobs < 1 {
		t.Fatal("New must select a positive pool size")
	}
}

// TestPanickingCellDoesNotDeadlock is the headline regression test: one
// cell's compute panics while 8 goroutines request it concurrently. Every
// requester must unblock with the panic in the cell's error (no poisoned
// done channel), the owner's worker slot must be released (a subsequent
// unrelated cell still runs), and the panic reason must appear in Report.
func TestPanickingCellDoesNotDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"jobs=1", 1}, // one slot: a leaked slot would wedge the engine outright
		{"jobs=4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.jobs)
			const requesters = 8
			errs := make(chan error, requesters)
			for i := 0; i < requesters; i++ {
				go func() {
					_, err := e.Do("bad", "bad cell", func(context.Context) (any, error) {
						panic("boom: simulated cell bug")
					})
					errs <- err
				}()
			}
			for i := 0; i < requesters; i++ {
				select {
				case err := <-errs:
					var pe *PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("requester %d: err = %v, want *PanicError", i, err)
					}
					if !strings.Contains(err.Error(), "boom: simulated cell bug") {
						t.Fatalf("panic reason lost: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("requester %d still blocked: poisoned-cell deadlock", i)
				}
			}
			// Slot recovery: an unrelated cell must still run.
			done := make(chan struct{})
			go func() {
				if v, err := e.Do("good", "good", ok(7)); err != nil || v.(int) != 7 {
					t.Errorf("follow-up cell: %v, %v", v, err)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("follow-up cell blocked: worker slot leaked by the panicking owner")
			}
			// The failure is memoized and visible in the report.
			if _, err := e.Do("bad", "bad cell", ok(nil)); err == nil {
				t.Fatal("re-request of the failed cell lost its error")
			}
			r := e.Report()
			if r.Failures != 1 {
				t.Fatalf("Failures = %d, want 1", r.Failures)
			}
			found := false
			for _, c := range r.Cells {
				if c.Label == "bad cell" && strings.Contains(c.Err, "boom: simulated cell bug") {
					found = true
				}
			}
			if !found {
				t.Fatalf("panic reason missing from report: %+v", r.Cells)
			}
		})
	}
}

// A panicking compute's stack reaches the report, where it names the frame
// that panicked; the failure's label and a plain failure's record stay as
// they were.
func TestPanicStackReachesReport(t *testing.T) {
	e := New(1)
	_, err := e.Do("bad", "bad cell", func(context.Context) (any, error) { panic("boom") })
	if got := FailLabel(err); got != "FAILED(panic: boom)" {
		t.Fatalf("FailLabel = %q", got)
	}
	e.Do("plain", "plain failure", func(context.Context) (any, error) { return nil, errors.New("plain") })
	stacks := map[string]string{}
	for _, c := range e.Report().Cells {
		stacks[c.Key] = c.Stack
	}
	if !strings.Contains(stacks["bad"], "TestPanicStackReachesReport") {
		t.Fatalf("the panicked cell's stack does not name the panicking function:\n%s", stacks["bad"])
	}
	if stacks["plain"] != "" {
		t.Fatalf("a plain failure reports a stack:\n%s", stacks["plain"])
	}
}

func TestCellError(t *testing.T) {
	e := New(1)
	sentinel := errors.New("compute says no")
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := e.Do("err", "err", func(context.Context) (any, error) {
			calls.Add(1)
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("failed cell recomputed %d times; errors must be memoized", calls.Load())
	}
}

func TestCellTimeout(t *testing.T) {
	e := Open(context.Background(), Config{Jobs: 2, CellTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	_, err := e.Do("hang", "hang", func(context.Context) (any, error) {
		<-release // a compute that never finishes on its own
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the wait")
	}
	if got := FailLabel(err); got != "FAILED(timeout)" {
		t.Fatalf("FailLabel = %q", got)
	}
}

func TestEngineCancelUnblocksWaiters(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	e := Open(ctx, Config{Jobs: 1})
	gate, holding := make(chan struct{}), make(chan struct{})
	defer close(gate)
	go e.Do("held", "held", func(context.Context) (any, error) { close(holding); <-gate; return 1, nil })
	<-holding // the one worker slot is now taken, not merely asked for
	// A waiter on the in-flight cell and a requester needing the (occupied)
	// worker slot must both unblock on engine cancellation.
	errs := make(chan error, 2)
	go func() { _, err := e.Do("held", "held", ok(nil)); errs <- err }()
	go func() { _, err := e.Do("other", "other", ok(nil)); errs <- err }()
	time.AfterFunc(10*time.Millisecond, func() { cancel(cause) })
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, cause) {
				t.Fatalf("err = %v, want cancellation cause", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancellation did not unblock a requester")
		}
	}
}

// TestReportConcurrentWithWarm is the -race regression test for the Report
// snapshot: reading per-cell fields of in-flight cells while their owners
// write them must be race-free (publication via the done channel).
func TestReportConcurrentWithWarm(t *testing.T) {
	e := New(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Report()
			}
		}
	}()
	var fns []func()
	for i := 0; i < 64; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		fns = append(fns, func() {
			e.Do(key, key, func(context.Context) (any, error) {
				time.Sleep(time.Millisecond)
				return key, nil
			})
		})
	}
	e.Warm(fns...)
	close(stop)
	wg.Wait()
	r := e.Report()
	if r.Unique == 0 || r.Failures != 0 {
		t.Fatalf("report after warm = %+v", r)
	}
}

func TestReportHitRate(t *testing.T) {
	e := New(1)
	e.Do("a", "a", ok(1))
	e.Do("a", "a", ok(1))
	e.Do("b", "b", ok(2))
	r := e.Report()
	if got, want := r.HitRate(), 1.0/3.0; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
	if tb := r.Table(); len(tb.Rows) != 4+r.Unique {
		t.Fatalf("report table has %d rows, want %d", len(tb.Rows), 4+r.Unique)
	}
}

// At -jobs 1 every owner but one is waiting for the worker slot, so each
// cell's wall reads about the length of the run; compute is the slot-held
// part, and over all cells it cannot exceed what one slot had to give.
func TestReportComputeExcludesTheWaitForASlot(t *testing.T) {
	e := New(1)
	const cells, nap = 8, 5 * time.Millisecond
	var fns []func()
	for i := range cells {
		key := fmt.Sprint("cell", i)
		fns = append(fns, func() {
			e.Do(key, key, func(context.Context) (any, error) {
				time.Sleep(nap)
				return key, nil
			})
		})
	}
	start := time.Now()
	e.Warm(fns...)
	run := time.Since(start)
	r := e.Report()
	if r.CellCompute > run || r.CellCompute < cells*nap {
		t.Fatalf("summed compute %v outside [%v, %v (the run)]", r.CellCompute, cells*nap, run)
	}
	if r.CellWall <= run {
		t.Fatalf("summed wall %v: the owners' waits for the slot should push it past the run's %v", r.CellWall, run)
	}
	var sum time.Duration
	for i, c := range r.Cells {
		if c.Compute < nap || c.Compute > c.Wall {
			t.Errorf("%s: compute %v, wall %v, slept %v", c.Label, c.Compute, c.Wall, nap)
		}
		if i > 0 && c.Compute > r.Cells[i-1].Compute {
			t.Errorf("cells not sorted by compute: %v after %v", c.Compute, r.Cells[i-1].Compute)
		}
		sum += c.Compute
	}
	if sum != r.CellCompute {
		t.Fatalf("cells sum to %v, report says %v", sum, r.CellCompute)
	}
	if got := r.Table().Header; len(got) != 5 || got[1] != "compute" || got[2] != "wall" {
		t.Fatalf("table header = %v", got)
	}
}

func TestFailLabel(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.DeadlineExceeded, "FAILED(timeout)"},
		{context.Canceled, "FAILED(cancelled)"},
		{&PanicError{Cell: "c", Reason: "boom"}, "FAILED(panic: boom)"},
		{errors.New("plain"), "FAILED(plain)"},
	} {
		if got := FailLabel(tc.err); got != tc.want {
			t.Errorf("FailLabel(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
