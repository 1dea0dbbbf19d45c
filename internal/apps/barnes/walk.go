package barnes

import "o2k/internal/numa"

// chargeBody charges body i's force loads one by one: its own x[i] and y[i],
// then its tree walk, walked again for its entries — the exact access
// sequence the cursor walker (walk_test.go) issues. It is what a force phase
// charges where its load footprint does not apply (another line size than the
// stream was compiled for, the reference model, a cache set the footprint
// over-fills).
func chargeBody(wp *WalkPlan, i int, cx, cy, cm, ccl *numa.Cursor[float64]) {
	cx.Load(i)
	cy.Load(i)
	entries, _, _, _ := wp.walk(i, nil)
	numa.ReplayLoads(entries, cx, cy, cm, ccl)
}
