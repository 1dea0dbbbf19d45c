package machine_test

import (
	"fmt"

	"o2k/internal/machine"
)

// The cost model is a plain struct: start from a preset and dial the knobs
// for what-if studies.
func ExampleDefault() {
	cfg := machine.Default(64)
	cfg.RemoteMissNS *= 2 // a more NUMA machine
	m := machine.MustNew(cfg)
	fmt.Println(m.Procs(), "procs on", m.Nodes(), "nodes")
	// Output: 64 procs on 32 nodes
}

// Hop distances follow the hypercube interconnect.
func ExampleMachine_Hops() {
	m := machine.MustNew(machine.Default(64))
	fmt.Println(m.Hops(0, 1), m.Hops(0, 2), m.Hops(0, 62))
	// Output: 0 1 5
}
