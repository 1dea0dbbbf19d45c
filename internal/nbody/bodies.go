// Package nbody is the hierarchical N-body substrate for the study's second
// adaptive application: a 2-D Barnes-Hut simulation. Its adaptivity
// signature differs from the mesh application — the work distribution
// (interaction counts per body) and the spatial structure (the quadtree)
// shift as the bodies move, forcing cost-based repartitioning every step —
// which is why paradigm-comparison studies in this line always pair an
// adaptive mesh with an N-body code.
//
// Everything is deterministic: body generation uses a fixed-seed generator,
// tree construction and traversal visit children in fixed order, and all
// floating-point reductions are ordered.
package nbody

import (
	"math"
	"math/rand"
)

// Gravitational constant, softening length, and integration step of the
// model problem (dimensionless units).
const (
	G       = 1.0
	Soft2   = 0.0025 // softening² — bounds close-encounter forces
	DT      = 0.01
	ThetaBH = 0.7 // Barnes-Hut opening criterion
)

// Bodies is a structure-of-arrays particle set.
type Bodies struct {
	X, Y   []float64
	VX, VY []float64
	M      []float64
}

// N returns the particle count.
func (b *Bodies) N() int { return len(b.X) }

// NewPlummer generates n bodies in a Plummer-like spherical cluster
// (projected to 2-D) with a deterministic seed. Velocities are small random
// transverse kicks, so the cluster slowly evolves — enough to move work
// between processors step to step.
func NewPlummer(n int, seed int64) *Bodies {
	rng := rand.New(rand.NewSource(seed))
	b := &Bodies{
		X:  make([]float64, n),
		Y:  make([]float64, n),
		VX: make([]float64, n),
		VY: make([]float64, n),
		M:  make([]float64, n),
	}
	// A product or a draw (rng.Float64 ends in a product) that feeds a sum is
	// converted, float64(x*y) + z, so no architecture fuses them (DESIGN.md §4).
	for i := 0; i < n; i++ {
		// Plummer radius sampling: r = a / sqrt(u^{-2/3} - 1).
		u := float64(rng.Float64()*0.99) + 0.005
		r := 0.15 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
		if r > 2 {
			r = 2
		}
		phi := float64(rng.Float64()) * 2 * math.Pi
		b.X[i] = 0.5 + float64(r*math.Cos(phi))
		b.Y[i] = 0.5 + float64(r*math.Sin(phi))
		// Mild circular motion plus noise.
		v := 0.3 * math.Sqrt(r)
		b.VX[i] = float64(-v*math.Sin(phi)) + float64(0.02*(float64(rng.Float64())-0.5))
		b.VY[i] = float64(v*math.Cos(phi)) + float64(0.02*(float64(rng.Float64())-0.5))
		b.M[i] = 1.0 / float64(n)
	}
	return b
}

// Bounds returns the tight bounding square of the bodies (equal sides, for
// quadtree construction).
func (b *Bodies) Bounds() (x0, y0, size float64) {
	minX, maxX := b.X[0], b.X[0]
	minY, maxY := b.Y[0], b.Y[0]
	for i := 1; i < b.N(); i++ {
		minX = math.Min(minX, b.X[i])
		maxX = math.Max(maxX, b.X[i])
		minY = math.Min(minY, b.Y[i])
		maxY = math.Max(maxY, b.Y[i])
	}
	size = math.Max(maxX-minX, maxY-minY)
	if size == 0 {
		size = 1
	}
	size *= 1.0000001 // keep the max-coordinate body strictly inside
	return minX, minY, size
}

// MortonKey returns the interleaved-bits key of body i within the given
// bounds, used for the cost-zones partition: contiguous key ranges are
// spatially compact.
func (b *Bodies) MortonKey(i int, x0, y0, size float64) uint32 {
	const bits = 16
	fx := (b.X[i] - x0) / size
	fy := (b.Y[i] - y0) / size
	ix := uint32(fx * (1 << bits))
	iy := uint32(fy * (1 << bits))
	if ix >= 1<<bits {
		ix = 1<<bits - 1
	}
	if iy >= 1<<bits {
		iy = 1<<bits - 1
	}
	return interleave(ix) | interleave(iy)<<1
}

// interleave spreads the low 16 bits of v into the even bit positions.
func interleave(v uint32) uint32 {
	v &= 0xFFFF
	v = (v | v<<8) & 0x00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}
