package stencil

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func mach(p int) *machine.Machine { return machine.MustNew(machine.Default(p)) }

func TestReferenceConverges(t *testing.T) {
	w := Small()
	cs := ReferenceChecksum(w)
	if cs <= 0 {
		t.Fatalf("checksum %v (heat should have diffused in)", cs)
	}
	w2 := w
	w2.Iters *= 2
	if ReferenceChecksum(w2) <= cs {
		t.Fatal("more sweeps should diffuse more heat inward")
	}
}

func TestCrossModelChecksumsIdentical(t *testing.T) {
	w := Small()
	for _, procs := range []int{1, 2, 5, 8} {
		m := mach(procs)
		var sums [3]float64
		for i, model := range core.AllModels() {
			sums[i] = Run(model, m, w).Checksum
		}
		if sums[0] != sums[1] || sums[1] != sums[2] {
			t.Fatalf("P=%d: %v %v %v", procs, sums[0], sums[1], sums[2])
		}
	}
}

func TestP1MatchesReferenceExactly(t *testing.T) {
	w := Small()
	ref := ReferenceChecksum(w)
	for _, model := range core.AllModels() {
		if got := Run(model, mach(1), w).Checksum; got != ref {
			t.Fatalf("%v: %v != %v", model, got, ref)
		}
	}
}

func TestParallelMatchesReferenceExactly(t *testing.T) {
	// Jacobi updates are per-cell independent, so even P>1 must be exact up
	// to the final reduction order; compare with a tight tolerance.
	w := Small()
	ref := ReferenceChecksum(w)
	got := Run(core.SAS, mach(4), w).Checksum
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-12 {
		t.Fatalf("drift %v", rel)
	}
}

func TestDeterministicTiming(t *testing.T) {
	w := Small()
	for _, model := range core.AllModels() {
		a := Run(model, mach(4), w).Total
		b := Run(model, mach(4), w).Total
		if a != b {
			t.Fatalf("%v nondeterministic", model)
		}
	}
}

func TestRegularWorkloadNarrowsGap(t *testing.T) {
	// The control result: on the regular stencil, MP's disadvantage vs
	// CC-SAS must be much smaller than on the adaptive applications.
	w := Default()
	m := mach(16)
	tMP := Run(core.MP, m, w).Total
	tSAS := Run(core.SAS, m, w).Total
	ratio := float64(tMP) / float64(tSAS)
	if ratio > 1.6 {
		t.Fatalf("MP/SAS ratio %v on regular stencil — should be close", ratio)
	}
	if ratio < 0.5 {
		t.Fatalf("suspicious ratio %v", ratio)
	}
}

func TestSpeedup(t *testing.T) {
	w := Default()
	for _, model := range core.AllModels() {
		t1 := Run(model, mach(1), w).Total
		t16 := Run(model, mach(16), w).Total
		if sp := float64(t1) / float64(t16); sp < 6 {
			t.Errorf("%v: regular stencil speedup only %.2f at P=16", model, sp)
		}
	}
}

func TestMoreProcsThanRows(t *testing.T) {
	w := Workload{N: 4, Iters: 3}
	ref := ReferenceChecksum(w)
	for _, model := range core.AllModels() {
		got := Run(model, mach(8), w).Checksum // some procs own zero rows
		if math.Abs(got-ref) > 1e-12*math.Abs(ref) {
			t.Fatalf("%v with idle procs: %v != %v", model, got, ref)
		}
	}
}

// programAccesses is the number of element accesses the program of model
// issues on np processors, read off the three programs: each processor seeds
// its rows of both grids, loads four elements and stores one per interior cell
// of its block in every sweep, moves its edge rows to each neighbour, and
// loads its block once for the checksum. A block is rows [lo, hi) of the
// interior rows 1..N; a processor with rows has a neighbour above unless
// lo = 1 and one below unless hi = N+1.
func programAccesses(model core.Model, w Workload, np int) uint64 {
	n, rowLen := w.N, w.N+2
	total := 0
	for me := range np {
		lo, hi := 1+me*n/np, 1+(me+1)*n/np
		own := hi - lo
		neighbours := 0
		if own > 0 {
			neighbours = b2i(lo > 1) + b2i(hi < n+1)
		}
		total += w.Iters*5*n*own + n*own // sweeps, checksum
		switch model {
		case core.MP:
			// Rows lo-1..hi of u and v; per sweep a load of the row sent and a
			// store of the row received per neighbour.
			total += 2*(own+2)*rowLen + w.Iters*neighbours*2*rowLen
		case core.SHMEM:
			// As MP, but the received row arrives by a put: no store.
			total += 2*(own+2)*rowLen + w.Iters*neighbours*rowLen
		case core.SAS:
			// Each owner its rows; the first and last processor the boundary
			// rows too. Halo rows arrive through the sweep's own loads.
			r0, r1 := lo, hi
			if me == 0 {
				r0 = 0
			}
			if me == np-1 {
				r1 = n + 2
			}
			total += 2 * (r1 - r0) * rowLen
		}
	}
	return uint64(total)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCellsChargeEveryAccessOnce is an oracle for the walk that charges the
// stencil: every access a program issues is one cache hit or one miss, so a
// cell's hits and misses add up to programAccesses, counted without the
// simulator. At P = 96 on Small, 32 processors own no rows.
func TestCellsChargeEveryAccessOnce(t *testing.T) {
	for _, c := range []struct {
		w     Workload
		procs []int
	}{{Small(), []int{1, 4, 16, 96}}, {Default(), []int{4}}} {
		for _, p := range c.procs {
			for _, model := range core.AllModels() {
				met := Run(model, mach(p), c.w)
				got := met.Counters.CacheHits + met.Counters.LocalMisses + met.Counters.RemoteMisses
				if want := programAccesses(model, c.w, p); got != want {
					t.Errorf("N=%d %v P=%d: %d hits and misses, the program issues %d accesses", c.w.N, model, p, got, want)
				}
			}
		}
	}
}

func TestPhaseAttribution(t *testing.T) {
	w := Small()
	met := Run(core.MP, mach(4), w)
	if met.PhaseMax[sim.PhaseCompute] == 0 {
		t.Error("no compute time")
	}
	if met.PhaseMax[sim.PhaseComm] == 0 {
		t.Error("no comm time for MP halo exchange")
	}
	if met.DataBytes <= 0 {
		t.Error("no memory accounting")
	}
}
