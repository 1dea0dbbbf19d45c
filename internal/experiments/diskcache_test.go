package experiments

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// The suite-level guarantees of the persistent cell cache (DESIGN.md §5.8):
// a warm cache makes `-exp all` serve its metrics cells from disk with
// byte-identical output at any -jobs value without touching the plan tier,
// a partially warm one loads exactly what missed, and every injected fault —
// unreadable entries, bit rot, version skew, a SIGKILL mid-sweep — degrades
// to recomputation without changing a single output byte.

// runAllCached renders the full quick suite on a fresh engine over the
// given cache, returning the bytes and the engine's report.
func runAllCached(t *testing.T, jobs int, dc *diskcache.Cache) (string, *runner.Report) {
	t.Helper()
	o := QuickOpts()
	e := runner.Open(bg, runner.Config{Jobs: jobs, Cache: dc})
	out := Render(RunAllCtx(bg, e, o))
	return out, e.Report()
}

func openCache(t *testing.T, dir string, opts ...diskcache.Option) *diskcache.Cache {
	t.Helper()
	dc, err := diskcache.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// planRow is the -runreport row CI's cache-warm job greps for.
const planRow = "plan cells from disk"

func TestWarmCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	ref, _ := runAllCached(t, 1, nil) // uncached reference bytes

	dir := t.TempDir()
	cold, coldRep := runAllCached(t, 1, openCache(t, dir))
	if cold != ref {
		t.Fatal("cold cached run differs from uncached run")
	}
	if coldRep.DiskHits != 0 || coldRep.Disk == nil || coldRep.Disk.Misses == 0 {
		t.Fatalf("cold report = DiskHits=%d Disk=%+v", coldRep.DiskHits, coldRep.Disk)
	}

	for _, jobs := range []int{1, 4} {
		warm, warmRep := runAllCached(t, jobs, openCache(t, dir))
		if warm != ref {
			t.Fatalf("warm run at -jobs %d differs from cold run", jobs)
		}
		if warmRep.Disk == nil || warmRep.Disk.Corrupt != 0 || warmRep.Disk.Stale != 0 {
			t.Fatalf("warm run at -jobs %d reported damage: %+v", jobs, warmRep.Disk)
		}
		// A full-hit pass is a function of its metrics and characteristics
		// entries alone: every cell it asks for comes from disk on the first
		// probe, and no plan-tier cell is instantiated, read or derived.
		if warmRep.PlanCells != 0 || warmRep.Disk.Misses != 0 {
			t.Fatalf("warm run at -jobs %d touched the plan tier: PlanCells=%d Disk=%+v",
				jobs, warmRep.PlanCells, warmRep.Disk)
		}
		if strings.Contains(warmRep.Table().String(), planRow) {
			t.Fatalf("warm run at -jobs %d reports a %q row with no plan cell instantiated", jobs, planRow)
		}
		for _, c := range warmRep.Cells {
			if !c.FromDisk {
				t.Fatalf("warm run at -jobs %d instantiated %q without a disk hit", jobs, c.Label)
			}
		}
	}

	// Plan-warm leg: with the metrics entries gone every run cell misses and
	// resolves its plan chain — all of it from disk, none of it recomputed —
	// so the plan tier is still proven end to end.
	if removeEntries(t, dir, coldRep, func(c runner.CellStat) bool { return c.Kind == "metrics" }) == 0 {
		t.Fatal("cold report lists no metrics cells")
	}
	planWarm, planRep := runAllCached(t, 1, openCache(t, dir))
	if planWarm != ref {
		t.Fatal("plan-warm run differs from cold run")
	}
	if planRep.PlanCells == 0 || planRep.PlanDiskHits != int64(planRep.PlanCells) {
		t.Fatalf("plan-warm run served %d of %d plan cells from disk", planRep.PlanDiskHits, planRep.PlanCells)
	}
	if !strings.Contains(planRep.Table().String(), planRow) {
		t.Fatalf("plan-warm run report lacks the %q row", planRow)
	}
	for _, c := range planRep.Cells {
		if c.Kind == "characteristics" && !c.FromDisk {
			t.Fatalf("plan-warm run recomputed %q", c.Label)
		}
	}
}

// removeEntries deletes the cache entries of the report's cells that match
// and returns how many it removed.
func removeEntries(t *testing.T, dir string, rep *runner.Report, match func(runner.CellStat) bool) int {
	t.Helper()
	n := 0
	for _, c := range rep.Cells {
		if match(c) {
			if err := os.Remove(diskcache.SidecarPath(dir, c.Key, ".cell")); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
}

// Every injected fault class must leave the output bytes untouched.
func TestCacheFaultsPreserveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	ref, _ := runAllCached(t, 1, nil)

	t.Run("bit-rot on every read", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir)); out != ref {
			t.Fatal("cold run differs")
		}
		ffs := diskcache.NewFaultFS(nil)
		ffs.FlipBitOnRead(1 << 20)
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("bit-rotted cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Corrupt == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all-corrupt, none served", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("read errors on every probe", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir)); out != ref {
			t.Fatal("cold run differs")
		}
		ffs := diskcache.NewFaultFS(nil)
		ffs.FailReads(errors.New("injected EIO"))
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("unreadable cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.ReadErrs == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir, diskcache.WithFingerprint("old-build"))); out != ref {
			t.Fatal("cold run differs")
		}
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFingerprint("new-build")))
		if out != ref {
			t.Fatal("version-skewed cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Stale == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all entries stale", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("write errors while populating", func(t *testing.T) {
		ffs := diskcache.NewFaultFS(nil)
		ffs.FailWrites(errors.New("injected ENOSPC"))
		out, rep := runAllCached(t, 2, openCache(t, t.TempDir(), diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("unwritable cache changed output bytes")
		}
		if rep.Disk.PutErrs == 0 {
			t.Fatalf("report = %+v, want put errors counted", rep.Disk)
		}
	})

	t.Run("truncated torn writes", func(t *testing.T) {
		dir := t.TempDir()
		ffs := diskcache.NewFaultFS(nil)
		ffs.TruncateWritesAt(25)
		if out, _ := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs))); out != ref {
			t.Fatal("torn-write run changed output bytes")
		}
		// Every committed entry is torn; the rerun must reject them all.
		out, rep := runAllCached(t, 2, openCache(t, dir))
		if out != ref {
			t.Fatal("torn cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Corrupt == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all-corrupt", rep.DiskHits, rep.Disk)
		}
	})
}

// The point of keying plan cells on (workload, P) and never on machine
// timing constants: fig12's four machine classes differ only in latency and
// bandwidth numbers, so all four share ONE structure cell and ONE plan cell.
func TestFig12MachinePresetsShareOnePlanCell(t *testing.T) {
	o := QuickOpts()
	dir := t.TempDir()

	e := runner.Open(bg, runner.Config{Jobs: 2, Cache: openCache(t, dir)})
	if _, _, err := RunOnCtx(bg, e, "machine-sweep", o); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	plan, persisted := 0, 0
	for _, c := range rep.Cells {
		if c.Kind != "" {
			persisted++
		}
		if c.Kind == "plan" {
			plan++
		}
	}
	// Four presets × three models ran, but the mesh workload needs exactly
	// two plan-tier cells: the adaptation structure and the P-specific
	// partitioning decisions.
	if plan != 2 {
		t.Fatalf("machine sweep created %d plan cells, want 2 (structure + plans)", plan)
	}
	if rep.PlanCells != plan {
		t.Fatalf("report counts %d plan cells, cells list has %d", rep.PlanCells, plan)
	}
	// Disk holds one entry per persisted cell — nothing was stored twice
	// under different machine constants.
	if got := countEntries(t, dir); got != persisted {
		t.Fatalf("disk has %d entries, report persisted %d cells", got, persisted)
	}

	// A second sweep whose run cells all miss (their entries removed) still
	// needs exactly those two plan cells, and serves both from disk.
	removeEntries(t, dir, rep, func(c runner.CellStat) bool { return c.Kind == "metrics" })
	e2 := runner.Open(bg, runner.Config{Jobs: 2, Cache: openCache(t, dir)})
	if _, _, err := RunOnCtx(bg, e2, "machine-sweep", o); err != nil {
		t.Fatal(err)
	}
	if rep2 := e2.Report(); rep2.PlanCells != 2 || rep2.PlanDiskHits != 2 {
		t.Fatalf("plan-warm sweep served %d of %d plan cells from disk, want 2 of 2", rep2.PlanDiskHits, rep2.PlanCells)
	}
	if got := countEntries(t, dir); got != persisted {
		t.Fatalf("plan-warm sweep changed the entry count: %d != %d", got, persisted)
	}
}

// A partially warm directory costs exactly the chains of the cells that
// missed: one absent run entry instantiates that run cell, its plan cell and
// its structure cell — nothing of any other processor count or application.
func TestPartialWarmthLoadsOnlyMissedChains(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	hybridCfg := machine.Default(maxP)
	dir := t.TempDir()
	ref, _ := runAllCached(t, 1, openCache(t, dir))
	for _, tc := range []struct {
		name, key string
		want      []string // labels of every cell not served from a metrics/characteristics entry
	}{
		{"n-body SHMEM P=4", core.CellKey("nbody/run", core.SHMEM, machine.Default(4), o.NBodyW),
			[]string{"n-body SHMEM P=4 (computed)", "n-body plans P=4 (computed)", "n-body structure (disk)"}},
		// The hybrid's plans are built at the node count, not the proc count.
		{"mesh hybrid", core.CellKey("mesh/hybrid", hybridCfg, o.MeshW),
			[]string{runLabel("mesh", core.Hybrid, maxP) + " (computed)",
				fmt.Sprintf("mesh plans P=%d (disk)", machine.MustNew(hybridCfg).Nodes()), "mesh structure (disk)"}},
	} {
		t.Run(tc.name, func(t *testing.T) { // each rerun refills the entry it found missing
			if err := os.Remove(diskcache.SidecarPath(dir, tc.key, ".cell")); err != nil {
				t.Fatal(err)
			}
			out, rep := runAllCached(t, 1, openCache(t, dir))
			if out != ref {
				t.Fatal("partially warm run changed output bytes")
			}
			var got []string
			for _, c := range rep.Cells {
				switch {
				case !c.FromDisk:
					got = append(got, c.Label+" (computed)")
				case c.Kind == "plan":
					got = append(got, c.Label+" (disk)")
				}
			}
			slices.Sort(got)
			slices.Sort(tc.want)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("partially warm run instantiated\n  %q\nwant exactly\n  %q", got, tc.want)
			}
		})
	}
}

// childEnvDir is the env hook TestMain uses to run the sweep-child mode:
// the test binary re-executed as a separate process that fills the given
// cache directory until it is SIGKILLed.
const childEnvDir = "O2K_SWEEP_CHILD_CACHE"

// runSweepChild is the subprocess body for the kill-resume test: run the
// quick suite against the cache, serially so entries appear steadily.
func runSweepChild(dir string) {
	dc, err := diskcache.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep child:", err)
		os.Exit(1)
	}
	RunAllCtx(bg, runner.Open(bg, runner.Config{Jobs: 1, Cache: dc}), QuickOpts())
	os.Exit(0)
}

func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnvDir); dir != "" {
		runSweepChild(dir)
	}
	os.Exit(m.Run())
}

// countEntries walks the cache directory for committed entry files.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".cell" {
			n++
		}
		return nil
	})
	return n
}

// TestKillResume proves the crash-safety story end to end: a sweep process
// SIGKILLed mid-run leaves a cache in which every committed entry is valid,
// and a rerun against the same directory resumes from it — serving the
// killed run's completed cells from disk — with byte-identical output.
func TestKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess + full quick suite; skipped with -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnvDir+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()

	// Kill the child the moment it has committed a few entries but (almost
	// certainly) not all of them. If the child is too fast and finishes,
	// the test still verifies resume — just not mid-sweep interruption.
	deadline := time.After(30 * time.Second)
poll:
	for countEntries(t, dir) < 5 {
		select {
		case <-done:
			break poll
		case <-deadline:
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	cmd.Process.Signal(syscall.SIGKILL)
	<-done

	committed := countEntries(t, dir)
	if committed == 0 {
		t.Fatal("child committed no entries before the kill")
	}
	t.Logf("killed child with %d entries committed", committed)

	// Every entry the kill left behind must be valid: atomic rename means
	// no torn entries, whatever instant the SIGKILL landed.
	dc := openCache(t, dir)
	st, err := dc.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bad != 0 {
		t.Fatalf("kill left %d invalid entries of %d", st.Bad, st.Checked)
	}

	// The resumed run serves the killed run's cells from disk and produces
	// the exact reference bytes.
	ref, _ := runAllCached(t, 1, nil)
	out, rep := runAllCached(t, 2, dc)
	if out != ref {
		t.Fatal("resumed run differs from reference bytes")
	}
	if rep.DiskHits == 0 {
		t.Fatal("resumed run served nothing from the killed run's cache")
	}
	if rep.Disk.Corrupt != 0 || rep.Disk.Stale != 0 {
		t.Fatalf("resumed run found damage: %+v", rep.Disk)
	}
	t.Logf("resumed run served %d cells from the killed sweep", rep.DiskHits)
}
