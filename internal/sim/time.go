// Package sim provides the deterministic virtual-time core that underlies
// every programming-model runtime in this repository.
//
// Each simulated processor carries a private virtual clock. Computation
// advances only the local clock; communication and synchronization events
// merge clocks conservatively (a receive cannot complete before the matching
// send has been issued in virtual time, a barrier releases everyone at the
// maximum entry time plus the barrier cost, and so on). Because costs are
// derived exclusively from each processor's own instruction stream plus
// synchronization-ordered events, the resulting virtual times are
// bit-for-bit reproducible across runs and host machines.
//
// How the processors are multiplexed onto the host is not part of the model:
// Group.Run executes the whole gang as resumable continuations under a
// single-threaded scheduler ordered by (virtual time, rank); see event.go.
package sim

import "fmt"

// Time is virtual time in nanoseconds. An int64 nanosecond clock covers
// roughly 292 years of simulated execution, far beyond any experiment here.
type Time int64

// Common time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "12.34ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two times.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
