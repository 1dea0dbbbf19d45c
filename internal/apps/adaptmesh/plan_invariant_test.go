package adaptmesh

import (
	"slices"
	"testing"
)

// Every owned vertex of a cycle must be seeded by exactly one mechanism:
// kept locally, received from a previous owner, or interpolated. This is
// the invariant that makes the remap phase correct in all three models.
// The migration loops range over MoveTo and MoveFrom, so those must be
// exactly the non-empty rows and columns of MoveSend, on built and on
// decoded plans alike.
func TestMigrationCoversEveryOwnedVertex(t *testing.T) {
	w := Small()
	st := BuildStructure(w)
	for _, nprocs := range []int{2, 4, 7} {
		plans := st.Plans(nprocs, w.NoRemap)
		decoded, err := st.DecodePlans(EncodePlans(plans, nprocs), nprocs)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range [][]*CyclePlan{plans, decoded} {
			for ci, pl := range seq {
				checkMovePeers(t, pl, nprocs, ci)
			}
		}
		for ci := 1; ci < len(plans); ci++ {
			pl := plans[ci]
			// source[v]: how many mechanisms deliver v's value to its owner.
			srcCount := make(map[int32]int)
			for p := 0; p < nprocs; p++ {
				for _, v := range pl.LocalKeep[p] {
					if pl.Dec.VertOwner[v] == int32(p) {
						srcCount[v]++
					}
				}
				for _, v := range pl.InterpOwned[p] {
					srcCount[v]++
				}
			}
			for src := 0; src < nprocs; src++ {
				for dst := 0; dst < nprocs; dst++ {
					for _, v := range pl.MoveSend[src][dst] {
						if pl.Dec.VertOwner[v] == int32(dst) {
							srcCount[v]++
						}
					}
				}
			}
			for p := 0; p < nprocs; p++ {
				for _, v := range pl.Dec.OwnedVerts[p] {
					if srcCount[v] != 1 {
						t.Fatalf("nprocs=%d cycle %d: vertex %d seeded %d times",
							nprocs, ci, v, srcCount[v])
					}
				}
			}
		}
	}
}

// checkMovePeers fails t unless pl's MoveTo and MoveFrom list, ascending,
// the non-empty rows and columns of MoveSend.
func checkMovePeers(t *testing.T, pl *CyclePlan, nprocs, ci int) {
	t.Helper()
	for p := 0; p < nprocs; p++ {
		var to, from []int
		for q := 0; q < nprocs; q++ {
			if len(pl.MoveSend[p][q]) > 0 {
				to = append(to, q)
			}
			if len(pl.MoveSend[q][p]) > 0 {
				from = append(from, q)
			}
		}
		if !slices.Equal(pl.MoveTo[p], to) || !slices.Equal(pl.MoveFrom[p], from) {
			t.Fatalf("nprocs=%d cycle %d proc %d: MoveTo %v MoveFrom %v, MoveSend pattern %v %v",
				nprocs, ci, p, pl.MoveTo[p], pl.MoveFrom[p], to, from)
		}
	}
}

// Interpolation leaf values must themselves arrive at the interpolating
// processor — every previously-used ancestor of an InterpOwned vertex shows
// up in that processor's LocalKeep or inbound MoveSend.
func TestInterpolationLeavesDelivered(t *testing.T) {
	w := Small()
	nprocs := 4
	plans := BuildPlans(w, nprocs)
	for ci := 1; ci < len(plans); ci++ {
		pl := plans[ci]
		for p := 0; p < nprocs; p++ {
			have := map[int32]bool{}
			for _, v := range pl.LocalKeep[p] {
				have[v] = true
			}
			for src := 0; src < nprocs; src++ {
				for _, v := range pl.MoveSend[src][p] {
					have[v] = true
				}
			}
			var leaves []int32
			for _, v := range pl.InterpOwned[p] {
				leaves = pl.expandLeaves(v, leaves[:0])
				for _, lv := range leaves {
					if !have[lv] {
						t.Fatalf("cycle %d proc %d: leaf %d of %d not delivered", ci, p, lv, v)
					}
				}
			}
		}
	}
}
