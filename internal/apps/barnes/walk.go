package barnes

import "o2k/internal/numa"

// replayWalk charges body i's force-walk loads from the precomputed trace —
// the exact access sequence the cursor walker (walk_test.go) would issue,
// with the traversal logic and physics paid once in WalkPlan.build instead of
// once per model per processor count. Entry e >= 0 loads body e's x/y/m; entry
// e < 0 loads cell ^e's three centre-of-mass words.
func replayWalk(wp *WalkPlan, i int, cx, cy, cm, ccl *numa.Cursor[float64]) {
	numa.ReplayLoads(wp.Trace[wp.Off[i]:wp.Off[i+1]], cx, cy, cm, ccl)
}
