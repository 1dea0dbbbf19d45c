package experiments

// Plan-tier persistence and fault semantics: the structure/plan cells added
// for millisecond warm runs must round-trip through the disk cache across
// engine instances, and every way a plan entry can go bad — bit rot, read
// errors, garbage files, intact payloads that fail the plan decoder —
// must degrade to recomputation with identical plans, never surface as a
// run error.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/cg"
	"o2k/internal/core"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// meshPlanBytes resolves the mesh plans on a fresh engine over dc and
// returns their canonical serialization plus the engine's report.
func meshPlanBytes(t *testing.T, w adaptmesh.Workload, procs int, dc *diskcache.Cache) ([]byte, *runner.Report) {
	t.Helper()
	e := runner.Open(context.Background(), runner.Config{Jobs: 1, Cache: dc})
	plans, err := meshPlans(context.Background(), e, w, procs)
	if err != nil {
		t.Fatalf("meshPlans: %v", err)
	}
	return adaptmesh.EncodePlans(plans, procs), e.Report()
}

func TestPlanCellsPersistAcrossEngines(t *testing.T) {
	w := adaptmesh.Small()
	dir := t.TempDir()

	ref, coldRep := meshPlanBytes(t, w, 4, openCache(t, dir))
	if coldRep.PlanDiskHits != 0 || coldRep.PlanCells == 0 {
		t.Fatalf("cold report: PlanDiskHits=%d PlanCells=%d", coldRep.PlanDiskHits, coldRep.PlanCells)
	}

	warm, warmRep := meshPlanBytes(t, w, 4, openCache(t, dir))
	if !bytes.Equal(warm, ref) {
		t.Fatal("warm plans differ from cold plans")
	}
	// Both tiers — the adaptation structure and the per-P partitioning
	// decisions — must come from disk on the warm pass.
	if warmRep.PlanDiskHits < 2 {
		t.Fatalf("warm PlanDiskHits = %d, want >= 2 (structure + plan)", warmRep.PlanDiskHits)
	}
	for _, c := range warmRep.Cells {
		if c.Kind == "plan" && !c.FromDisk {
			t.Fatalf("warm run recomputed plan cell %q", c.Label)
		}
	}
}

func TestPlanTierFaultsDegradeToRecompute(t *testing.T) {
	w := adaptmesh.Small()
	dir := t.TempDir()
	ref, _ := meshPlanBytes(t, w, 4, openCache(t, dir))

	t.Run("bit rot on every read", func(t *testing.T) {
		ffs := diskcache.NewFaultFS(nil)
		ffs.FlipBitOnRead(1 << 20)
		out, rep := meshPlanBytes(t, w, 4, openCache(t, dir, diskcache.WithFS(ffs)))
		if !bytes.Equal(out, ref) {
			t.Fatal("bit-rotted plan cache changed the plans")
		}
		if rep.PlanDiskHits != 0 || rep.Disk.Corrupt == 0 {
			t.Fatalf("report: PlanDiskHits=%d Disk=%+v, want all-corrupt, none served", rep.PlanDiskHits, rep.Disk)
		}
	})

	t.Run("read errors on every probe", func(t *testing.T) {
		dir := t.TempDir()
		meshPlanBytes(t, w, 4, openCache(t, dir))
		ffs := diskcache.NewFaultFS(nil)
		ffs.FailReads(errors.New("injected EIO"))
		out, rep := meshPlanBytes(t, w, 4, openCache(t, dir, diskcache.WithFS(ffs)))
		if !bytes.Equal(out, ref) {
			t.Fatal("unreadable plan cache changed the plans")
		}
		if rep.PlanDiskHits != 0 || rep.Disk.ReadErrs == 0 {
			t.Fatalf("report: PlanDiskHits=%d Disk=%+v", rep.PlanDiskHits, rep.Disk)
		}
	})

	// A payload in a well-formed entry that passes diskcache integrity but
	// fails the plan decoder must be invalidated and recomputed — this is the
	// path where a corrupt plan entry could otherwise surface as a run error.
	t.Run("well-framed garbage plan payloads", func(t *testing.T) {
		dir := t.TempDir()
		dc := openCache(t, dir)
		for _, key := range []string{meshStructKey(w), meshPlanKey(w, 4)} {
			if err := dc.Put(key, []byte("not a plan at all")); err != nil {
				t.Fatal(err)
			}
		}
		out, rep := meshPlanBytes(t, w, 4, dc)
		if !bytes.Equal(out, ref) {
			t.Fatal("garbage plan payloads changed the plans")
		}
		if rep.PlanDiskHits != 0 {
			t.Fatalf("garbage payloads were served as plans: PlanDiskHits=%d", rep.PlanDiskHits)
		}
		// The decoder rejections must have evicted both entries; a rerun
		// stores fresh ones and serves them.
		out2, rep2 := meshPlanBytes(t, w, 4, openCache(t, dir))
		if !bytes.Equal(out2, ref) {
			t.Fatal("recovered plan cache changed the plans")
		}
		if rep2.PlanDiskHits < 2 {
			t.Fatalf("entries were not rewritten after eviction: PlanDiskHits=%d", rep2.PlanDiskHits)
		}
	})

	t.Run("truncated and mis-framed cg plan entries", func(t *testing.T) {
		cw := cg.Small()
		dir := t.TempDir()
		e := runner.Open(context.Background(), runner.Config{Jobs: 1, Cache: openCache(t, dir)})
		refPlan, err := cgPlan(context.Background(), e, cw, 4)
		if err != nil {
			t.Fatal(err)
		}
		refBytes := cg.EncodePlan(refPlan)

		dc := openCache(t, dir)
		if err := dc.Put(cgMeshKey(cw), []byte("{")); err != nil { // not a mesh: a torn JSON object
			t.Fatal(err)
		}
		if err := dc.Put(cgPlanKey(cw, 4), []byte("o2kcgplan 1")); err != nil { // truncated plan
			t.Fatal(err)
		}
		e2 := runner.Open(context.Background(), runner.Config{Jobs: 1, Cache: dc})
		p, err := cgPlan(context.Background(), e2, cw, 4)
		if err != nil {
			t.Fatalf("corrupt cg plan entries surfaced as a run error: %v", err)
		}
		if !bytes.Equal(cg.EncodePlan(p), refBytes) {
			t.Fatal("corrupt cg plan entries changed the plan")
		}
		if rep := e2.Report(); rep.PlanDiskHits != 0 {
			t.Fatalf("corrupt entries were served: PlanDiskHits=%d", rep.PlanDiskHits)
		}
	})
}

// The characteristics cells behind Table 1 persist like any other cell — a
// warm table is three small disk hits and no plan cell — and their decoder is
// strict: a payload of another shape is evicted and recomputed.
func TestCharacteristicsCellsPersistAndRejectForeignPayloads(t *testing.T) {
	o := QuickOpts()
	dir := t.TempDir()
	table1 := func(dc *diskcache.Cache) (string, *runner.Report) {
		e := runner.Open(context.Background(), runner.Config{Jobs: 2, Cache: dc})
		return buildTable1(context.Background(), e, o).String(), e.Report()
	}
	ref, _ := table1(openCache(t, dir))

	out, rep := table1(openCache(t, dir))
	if out != ref {
		t.Fatal("warm Table 1 differs from the cold one")
	}
	if rep.Unique != 3 || rep.DiskHits != 3 || rep.PlanCells != 0 {
		t.Fatalf("warm Table 1: unique=%d disk hits=%d plan cells=%d, want 3/3/0", rep.Unique, rep.DiskHits, rep.PlanCells)
	}

	dc := openCache(t, dir)
	for key, payload := range map[string]string{
		core.CellKey("mesh/chars", charsSchema, meshStructKey(o.MeshW)): `{"Cycles":1,"Bogus":2}`,               // unknown field
		core.CellKey("cg/chars", charsSchema, cgMeshKey(o.CGW)):         `{"Tris":1,"Edges":1,"Rows":1} "more"`, // trailing data
	} {
		if err := dc.Put(key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	out, rep = table1(dc)
	if out != ref {
		t.Fatal("foreign characteristics payloads changed Table 1")
	}
	if rep.DiskHits-rep.PlanDiskHits != 1 { // only the n-body characteristics survived
		t.Fatalf("foreign payloads were served: %d non-plan disk hits, want 1", rep.DiskHits-rep.PlanDiskHits)
	}
	if _, rep = table1(openCache(t, dir)); rep.DiskHits != 3 {
		t.Fatalf("evicted characteristics were not rewritten: disk hits=%d, want 3", rep.DiskHits)
	}
}

// Table 1 describes workloads, which no processor count changes: a cold
// Table 1 builds the structure cells its characteristics read and no plan
// cell of any P.
func TestTable1BuildsNoPlanCell(t *testing.T) {
	e := runner.New(2)
	if _, _, err := RunOnCtx(bg, e, "workloads", QuickOpts()); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	for _, c := range rep.Cells {
		if strings.Contains(c.Label, "plans P=") || strings.Contains(c.Label, "plan P=") {
			t.Errorf("Table 1 built the plan cell %q", c.Label)
		}
	}
	if rep.Unique != 6 || rep.PlanCells != 3 { // three characteristics, three structures
		t.Fatalf("cold Table 1: %d cells, %d of the plan tier, want 6 and 3", rep.Unique, rep.PlanCells)
	}
}
