package sim

import (
	"fmt"
	"strings"
)

// Segment is one contiguous stretch of virtual time a processor spent in a
// single phase.
type Segment struct {
	Phase Phase
	Start Time
	End   Time
}

// Tracing is opt-in per group: when enabled, every processor records the
// phase segments of its virtual timeline, and RenderTimeline draws them as
// a text Gantt chart — the visual counterpart of the phase-breakdown table.

// EnableTrace turns on segment recording for every processor in the group.
// Call before Run; tracing adds a small host-side cost per phase change.
func (g *Group) EnableTrace() {
	for _, p := range g.procs {
		p.tracing = true
	}
}

// Trace returns the recorded segments of processor i (nil without
// EnableTrace). Zero-length segments are omitted.
func (g *Group) Trace(i int) []Segment {
	p := g.procs[i]
	p.flushSegment()
	return p.trace
}

// Traces returns every processor's recorded segments, indexed by rank — the
// bulk form of Trace for exporters (nil slices without EnableTrace).
func (g *Group) Traces() [][]Segment {
	out := make([][]Segment, len(g.procs))
	for i := range g.procs {
		out[i] = g.Trace(i)
	}
	return out
}

// record is called on phase changes; it closes the open segment.
func (p *Proc) flushSegment() {
	if !p.tracing {
		return
	}
	if p.clock > p.segStart {
		n := len(p.trace)
		if n > 0 && p.trace[n-1].Phase == p.segPhase && p.trace[n-1].End == p.segStart {
			p.trace[n-1].End = p.clock // merge adjacent same-phase segments
		} else {
			p.trace = append(p.trace, Segment{Phase: p.segPhase, Start: p.segStart, End: p.clock})
		}
	}
	p.segStart = p.clock
	p.segPhase = p.phase
}

// timelineGlyphs maps each phase to the rune RenderTimeline draws.
var timelineGlyphs = [NumPhases]rune{
	'C', // compute
	'm', // comm
	'.', // sync
	'K', // mark
	'R', // refine
	'P', // partition
	'M', // remap
	'T', // tree
}

// RenderTimeline draws the group's traced virtual timelines as one text row
// per processor, quantized to width columns. Each column shows the phase
// that occupied most of that column's time slice. Requires EnableTrace.
func RenderTimeline(g *Group, width int) string {
	if width < 8 {
		width = 8
	}
	total := g.MaxTime()
	if total == 0 {
		return "(empty timeline)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual timeline, %v total; ", total)
	for ph := Phase(0); ph < NumPhases; ph++ {
		fmt.Fprintf(&b, "%c=%s ", timelineGlyphs[ph], ph)
	}
	b.WriteByte('\n')
	for i := 0; i < g.Size(); i++ {
		segs := g.Trace(i)
		fmt.Fprintf(&b, "p%-3d |", i)
		var buckets [][NumPhases]Time
		buckets = make([][NumPhases]Time, width)
		for _, s := range segs {
			lo := int(int64(s.Start) * int64(width) / int64(total))
			hi := int(int64(s.End) * int64(width) / int64(total))
			if hi >= width {
				hi = width - 1
			}
			for c := lo; c <= hi; c++ {
				// Overlap of the segment with column c's slice.
				cLo := Time(int64(total) * int64(c) / int64(width))
				cHi := Time(int64(total) * int64(c+1) / int64(width))
				ov := Min(s.End, cHi) - Max(s.Start, cLo)
				if ov > 0 {
					buckets[c][s.Phase] += ov
				}
			}
		}
		for c := 0; c < width; c++ {
			best, bestT := -1, Time(0)
			for ph := Phase(0); ph < NumPhases; ph++ {
				if buckets[c][ph] > bestT {
					best, bestT = int(ph), buckets[c][ph]
				}
			}
			if best < 0 {
				b.WriteByte(' ') // idle (waiting host-side; no virtual time)
			} else {
				b.WriteRune(timelineGlyphs[best])
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}
