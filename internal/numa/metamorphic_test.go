package numa

import (
	"reflect"
	"slices"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// Metamorphic relations over the machine model, on the seeded traces of
// ref_test.go: the differential test proves the fast path equal to ref.go, and
// these prove of both what must hold of any cost model of this machine,
// whatever its constants.

var metamorphicTraces = []traceCfg{
	{name: "default", procs: 8, steps: 4000},
	{name: "tiny-caches", procs: 72, cacheBytes: 4096, steps: 6000},
}

// eachModel runs f on the optimized path and on the reference model.
func eachModel(t *testing.T, f func(t *testing.T, useRef bool)) {
	t.Run("fast", func(t *testing.T) { f(t, false) })
	t.Run("ref", func(t *testing.T) { f(t, true) })
}

// Every latency a trace can be charged — the cache hit, the local miss, the
// remote miss and its per-hop increment (so every entry of the node latency
// table), the per-line invalidation penalty — multiplied by k: what happens
// is the same (counters, evictions, final tags), and every clock, phase time
// and merge penalty is exactly k times what it was. A charge that bypasses
// the tables, or a constant folded into a fast path, fails it.
func TestLatencyScalingScalesTimeAndNothingElse(t *testing.T) {
	eachModel(t, func(t *testing.T, useRef bool) {
		for _, tc := range metamorphicTraces {
			base := runTrace(t, tc, 7, useRef)
			for _, k := range []sim.Time{2, 3} {
				scaled := tc
				scaled.tune = func(c *machine.Config) {
					c.CacheHitNS *= k
					c.LocalMissNS *= k
					c.RemoteMissNS *= k
					c.RemoteHopNS *= k
					c.CohInvalPerLine *= k
				}
				got := runTrace(t, scaled, 7, useRef)
				want := base
				want.Procs = slices.Clone(base.Procs)
				for i := range want.Procs {
					want.Procs[i].Clock *= k
					for ph := range want.Procs[i].Phases {
						want.Procs[i].Phases[ph] *= k
					}
				}
				want.PenLog = slices.Clone(base.PenLog)
				for i := range want.PenLog {
					want.PenLog[i] *= k
				}
				if d := got.diff(want); d != "" {
					t.Errorf("%s, latencies x%d: not the base run with its times x%d: %s", tc.name, k, k, d)
				}
			}
			if base.Procs[0].Clock == 0 || len(base.PenLog) == 0 {
				t.Errorf("%s: the base run charged nothing", tc.name)
			}
		}
	})
}

// With a remote miss priced like a local one, where a page is homed cannot
// matter: two placements of the same shared arrays give every processor the
// same clock and phase times, the same hits and the same number of misses —
// only their split into local and remote moves, and it must move, or the
// placements were not different.
func TestPlacementIrrelevantAtUnitLatencyRatio(t *testing.T) {
	flat := func(c *machine.Config) {
		c.RemoteMissNS = c.LocalMissNS
		c.RemoteHopNS = 0
	}
	eachModel(t, func(t *testing.T, useRef bool) {
		for _, tc := range metamorphicTraces {
			tc.tune = flat
			procs := tc.procs
			tc.place = func(int) int { return 0 }
			onOne := runTrace(t, tc, 11, useRef)
			tc.place = func(elem int) int { return procs - 1 - elem/2048%procs } // by 16 KB page, from the far end
			spread := runTrace(t, tc, 11, useRef)

			var localOne, localSpread uint64
			for i := range onOne.Procs {
				a, b := &onOne.Procs[i].Counters, &spread.Procs[i].Counters
				localOne += a.LocalMisses
				localSpread += b.LocalMisses
				if a.LocalMisses+a.RemoteMisses != b.LocalMisses+b.RemoteMisses {
					t.Errorf("%s proc %d: %d misses with every page on proc 0, %d spread", tc.name, i,
						a.LocalMisses+a.RemoteMisses, b.LocalMisses+b.RemoteMisses)
				}
				// The split is the one thing allowed to differ.
				b.LocalMisses, b.RemoteMisses = a.LocalMisses, a.RemoteMisses
			}
			if localOne == localSpread {
				t.Errorf("%s: both placements give %d local misses: not two placements", tc.name, localOne)
			}
			if d := spread.diff(onOne); d != "" {
				t.Errorf("%s: placement shows at remote = local latency: %s", tc.name, d)
			}
			// And it does show on the default machine: the relation is not vacuous.
			tc.tune = nil
			far := runTrace(t, tc, 11, useRef)
			tc.place = func(int) int { return 0 }
			if near := runTrace(t, tc, 11, useRef); reflect.DeepEqual(near.Procs, far.Procs) {
				t.Errorf("%s: placement does not show at the default latencies either", tc.name)
			}
		}
	})
}
