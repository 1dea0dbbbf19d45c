package sim

import (
	"fmt"
	"sort"
)

// StallError is the panic value raised in every processor the scheduler finds
// suspended on a rendezvous that can never complete (see Group.Run): a
// barrier or reducer episode short of participants because a processor
// panicked, returned early or waits elsewhere, or a Cond nobody is left to
// broadcast. For an episode it names the ranks that did arrive, so the
// diagnostic points straight at the ones that are missing. Group.Run
// re-raises it inside a *ProcPanic and the experiment engine turns that into
// a failed cell.
type StallError struct {
	Kind    string // "barrier", "reducer", or the Cond's Kind
	N       int    // expected participant count (0 for a Cond)
	Arrived []int  // ranks (or slots) that reached the episode
}

// Missing returns the ranks in [0, N) that never arrived, sorted.
func (e *StallError) Missing() []int {
	present := make(map[int]bool, len(e.Arrived))
	for _, id := range e.Arrived {
		present[id] = true
	}
	var miss []int
	for id := 0; id < e.N; id++ {
		if !present[id] {
			miss = append(miss, id)
		}
	}
	return miss
}

func (e *StallError) Error() string {
	arrived := append([]int(nil), e.Arrived...)
	sort.Ints(arrived)
	return fmt.Sprintf("sim: %s stalled: %d/%d participants (arrived %v, missing %v)",
		e.Kind, len(e.Arrived), e.N, arrived, e.Missing())
}
