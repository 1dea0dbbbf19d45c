package mesh

import "math"

// MovingFront is the workload driver: a circular solution feature (think of
// a shock or flame front) of the given radius whose centre moves across the
// domain over the course of the experiment. The mesh must refine to MaxLevel
// in a band around the front and may coarsen everywhere else — the classic
// adaptive pattern whose shifting work distribution forces dynamic load
// balancing.
type MovingFront struct {
	Radius   float64 // front radius
	Band     float64 // half-width of the fully refined band around the front
	MaxLevel int     // level requested inside the band
	X0, Y0   float64 // centre at step 0
	DX, DY   float64 // centre displacement per step
}

// DefaultFront returns the standard workload: a quarter-circle front
// sweeping from the lower-left toward the upper-right of the unit square.
func DefaultFront(maxLevel int) MovingFront {
	return MovingFront{
		Radius:   0.25,
		Band:     0.04,
		MaxLevel: maxLevel,
		X0:       0.15,
		Y0:       0.15,
		DX:       0.09,
		DY:       0.07,
	}
}

// At returns the indicator for time step "step": desired level decays by one
// per band-width of distance from the front, so the request is graded.
func (w MovingFront) At(step int) Indicator {
	cx := w.X0 + float64(float64(step)*w.DX)
	cy := w.Y0 + float64(float64(step)*w.DY)
	return func(x, y float64) int {
		d := math.Abs(math.Hypot(x-cx, y-cy) - w.Radius)
		lvl := w.MaxLevel - int(math.Floor((d-w.Band)/w.Band))
		if d <= w.Band {
			lvl = w.MaxLevel
		}
		if lvl < 0 {
			return 0
		}
		if lvl > w.MaxLevel {
			return w.MaxLevel
		}
		return lvl
	}
}

// InitialField returns the physical field the solver smooths: a steep bump
// along the front at step 0, giving the solver something real to do and the
// cross-model result checks something nontrivial to compare.
func (w MovingFront) InitialField(x, y float64) float64 {
	d := math.Hypot(x-w.X0, y-w.Y0) - w.Radius
	return math.Exp(-(d * d) / (2 * w.Band * w.Band))
}
