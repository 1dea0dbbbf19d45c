package numa_test

import (
	"context"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/numa"
	"o2k/internal/runner"
)

// The whole quick suite — four applications, every model, the hybrid, the
// machine presets — with every pointer-free array on mapped memory prints the
// bytes it prints on the heap, and every cell has closed its space by the time
// the suite returns: no mapping is left, no collection awaited.
func TestQuickSuiteIdenticalWithEveryArrayMapped(t *testing.T) {
	if testing.Short() {
		t.Skip("two passes of the quick suite; skipped with -short")
	}
	suite := func() string {
		return experiments.Render(experiments.RunAllCtx(context.Background(), runner.New(2), experiments.QuickOpts()))
	}
	want := suite()
	numa.AwaitNoMappings(t)
	numa.SetMapMinBytes(t, 0)
	mapped := numa.CountMappings(t)
	if got := suite(); got != want {
		t.Error("the quick suite prints different bytes on mapped memory")
	}
	if mapped.Load() == 0 {
		t.Skip("no demand-zero mappings on this host")
	}
	t.Logf("%d mappings made", mapped.Load())
	if n := numa.LiveMappings(); n != 0 {
		t.Errorf("%d of them still live after the suite", n)
	}
}
