// Package sim provides the numerical substrate of the paper's
// micro-benchmark: program U solves the 2-D wave equation with forcing,
// u_tt = u_xx + u_yy + f(t,x,y), on the unit square, and program F computes
// the forcing field f. Both run as data-parallel components over the
// framework's process groups, using the collective layer for halo exchange.
package sim

import (
	"math"

	"repro/internal/decomp"
)

// Forcing is a space-time scalar field f(t, x, y) on the unit square.
type Forcing func(t, x, y float64) float64

// PulseForcing is a smooth localized source that orbits the domain center —
// a stand-in for the external driving field of a multi-physics coupling
// (e.g. an energy deposition computed by another model).
func PulseForcing(t, x, y float64) float64 {
	cx := 0.5 + 0.25*math.Cos(t/3)
	cy := 0.5 + 0.25*math.Sin(t/3)
	d2 := (x-cx)*(x-cx) + (y-cy)*(y-cy)
	return 5 * math.Exp(-50*d2) * math.Sin(2*t)
}

// Field samples a Forcing over one process's block of an N x N interior
// grid. Grid point (r, c) of an N x N array sits at
// x = (c+1)h, y = (r+1)h with h = 1/(N+1) (Dirichlet boundaries at the
// domain edge are not stored).
type Field struct {
	N     int
	Block decomp.Rect
	Fn    Forcing
}

// NewField builds a sampler for rank's block under layout (an N x N grid).
func NewField(layout decomp.Layout, rank int, fn Forcing) *Field {
	rows, _ := layout.Shape()
	return &Field{N: rows, Block: layout.Block(rank), Fn: fn}
}

// H returns the mesh spacing.
func (f *Field) H() float64 { return 1 / float64(f.N+1) }

// Sample fills dst (Block.Area() values, row-major) with f at time t.
func (f *Field) Sample(t float64, dst []float64) {
	h := f.H()
	i := 0
	for r := f.Block.R0; r < f.Block.R1; r++ {
		y := float64(r+1) * h
		for c := f.Block.C0; c < f.Block.C1; c++ {
			x := float64(c+1) * h
			dst[i] = f.Fn(t, x, y)
			i++
		}
	}
}
