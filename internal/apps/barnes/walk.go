package barnes

import "o2k/internal/numa"

// replayWalk charges body i's force-walk loads from the precomputed stream —
// the exact access sequence the cursor walker (walk_test.go) would issue,
// with the traversal logic and physics paid once in WalkPlan.build instead of
// once per model per processor count. Where the stream does not apply (another
// line size than it was compiled for, the reference model) the body's visits
// are walked again and replayed entry by entry.
func replayWalk(wp *WalkPlan, i int, cx, cy, cm, ccl *numa.Cursor[float64]) {
	if wp.lineBytes != 0 && numa.ReplayLines(wp.syms[wp.off[i]:wp.off[i+1]], wp.lineBytes, cx, cy, cm, ccl) {
		return
	}
	entries, _, _, _ := wp.walk(i, nil)
	numa.ReplayLoads(entries, cx, cy, cm, ccl)
}
