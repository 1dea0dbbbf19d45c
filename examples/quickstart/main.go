// Quickstart: run the adaptive-mesh application under all three programming
// models on a simulated 16-processor Origin2000 and print the comparison —
// the whole public API in thirty lines.
package main

import (
	"fmt"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/core"
	"o2k/internal/machine"
)

func main() {
	const procs = 16
	mach := machine.MustNew(machine.Default(procs))
	w := adaptmesh.Default()
	plans := adaptmesh.BuildPlans(w, procs) // structural side, shared by all models

	fmt.Printf("adaptive mesh on a simulated %d-processor Origin2000\n", procs)
	fmt.Printf("final mesh: %d triangles, %d edges\n\n",
		plans[len(plans)-1].M.NumTris(), plans[len(plans)-1].M.NumEdges())

	t := &core.Table{Header: []string{"model", "time", "checksum", "messages", "remote misses"}}
	for _, model := range core.AllModels() {
		met := adaptmesh.RunWithPlans(model, mach, w, plans)
		t.AddRow(model.String(), core.FT(met.Total),
			fmt.Sprintf("%.12g", met.Checksum),
			fmt.Sprintf("%d", met.Counters.MsgsSent),
			fmt.Sprintf("%d", met.Counters.RemoteMisses))
	}
	fmt.Print(t.String())
	fmt.Println("\nnote: the checksums are bit-identical — the three codes compute the same answer.")
	fmt.Printf("sequential reference: %.12g (the parallel sums associate differently)\n", adaptmesh.ReferenceChecksum(w))
}
