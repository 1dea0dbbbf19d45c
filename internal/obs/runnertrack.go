package obs

import (
	"sort"
	"sync"
	"time"

	"o2k/internal/runner"
)

// Collector buffers runner cell events for later export. Its Hook is safe
// for concurrent use (the engine calls it from request and owner goroutines
// alike); read the events only after the run has finished.
type Collector struct {
	mu     sync.Mutex
	events []runner.Event
}

// Hook returns the function to pass to runner.Engine.SetHook.
func (c *Collector) Hook() runner.Hook {
	return func(ev runner.Event) {
		c.mu.Lock()
		c.events = append(c.events, ev)
		c.mu.Unlock()
	}
}

// Events returns a snapshot of the collected events.
func (c *Collector) Events() []runner.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]runner.Event(nil), c.events...)
}

// Len returns the number of events collected so far.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// AddRunnerTrack adds the engine's cell events as the host-side process
// (pid 0, wall time, normalized so the earliest event is at ts 0). Span
// events — computes, disk hits, dedup waits — are packed greedily into
// non-overlapping lanes, one Chrome thread per lane, so concurrent cells
// render side by side; memo-hit instants go to a dedicated lane above them.
func (b *Builder) AddRunnerTrack(events []runner.Event) {
	if len(events) == 0 {
		return
	}
	evs := append([]runner.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start.Before(evs[j].Start) })
	t0 := evs[0].Start

	wallUS := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	isSpan := func(k runner.EventKind) bool {
		return k == runner.EventCompute || k == runner.EventDiskHit || k == runner.EventDedup
	}

	// Greedy lane assignment: each span goes to the first lane whose
	// previous span has ended by the time this one starts.
	var laneEnd []time.Time
	lanes := 0
	for _, ev := range evs {
		if !isSpan(ev.Kind) {
			continue
		}
		lane := -1
		for li := range laneEnd {
			if !ev.Start.Before(laneEnd[li]) {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = ev.Start.Add(ev.Dur)
		if lane+1 > lanes {
			lanes = lane + 1
		}
		b.events = append(b.events, ChromeEvent{
			Name: ev.Label,
			Cat:  ev.Kind.String(),
			Ph:   "X",
			Ts:   wallUS(ev.Start.Sub(t0)),
			Dur:  wallUS(ev.Dur),
			Pid:  hostPid,
			Tid:  lane,
			Args: runnerArgs(ev),
		})
	}
	instantTid := lanes // the lane above every span lane
	for _, ev := range evs {
		if isSpan(ev.Kind) {
			continue
		}
		b.events = append(b.events, ChromeEvent{
			Name:  ev.Label,
			Cat:   ev.Kind.String(),
			Ph:    "i",
			Ts:    wallUS(ev.Start.Sub(t0)),
			Pid:   hostPid,
			Tid:   instantTid,
			Scope: "t",
			Args:  runnerArgs(ev),
		})
	}
	b.meta(hostPid, instantTid, "thread_name", "cache hits")
	for lane := 0; lane < lanes; lane++ {
		b.meta(hostPid, lane, "thread_name", "cells")
	}
	b.meta(hostPid, 0, "process_name", "runner (host)")
}

// runnerArgs renders an event's detail fields for the trace viewer.
func runnerArgs(ev runner.Event) map[string]any {
	args := map[string]any{"kind": ev.Kind.String(), "key": ev.Key}
	if ev.Err != "" {
		args["err"] = ev.Err
	}
	return args
}
