// Cg: the conjugate-gradient comparison — the latency-bound member of the
// application mix. Watch the "sync" share of MP's time grow with P until
// the two allreduces per iteration dominate and scaling stops, while the
// CC-SAS reduction tree keeps it going.
package main

import (
	"fmt"

	"o2k/internal/apps/cg"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func main() {
	w := cg.Default()
	fmt.Printf("CG on the refined mesh: %d iterations, 2 global reductions each\n\n", w.Iters)
	t := &core.Table{Header: []string{"P", "model", "total", "sync share", "residual"}}
	for _, procs := range []int{1, 16, 64} {
		pl := cg.BuildPlan(w, procs)
		m := machine.MustNew(machine.Default(procs))
		for _, model := range core.AllModels() {
			met := cg.RunWithPlan(model, m, w, pl)
			t.AddRow(fmt.Sprintf("%d", procs), model.String(), core.FT(met.Total),
				fmt.Sprintf("%.0f%%", 100*met.PhaseFraction(sim.PhaseSync)),
				fmt.Sprintf("%.3e", met.Extra["residual"]))
		}
	}
	fmt.Print(t.String())
	fmt.Println("\nresiduals are identical across models: same arithmetic, bit for bit.")
	_, ref := cg.ReferenceSolve(w, cg.BuildPlan(w, 1))
	fmt.Printf("sequential reference residual: %.3e\n", ref)
}
