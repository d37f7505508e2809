package decomp

import (
	"fmt"

	"repro/internal/wire"
)

// Grid is one process's local block of a distributed 2-D float64 array,
// stored row-major, addressed by global coordinates.
type Grid struct {
	// Block is the global rectangle this grid holds.
	Block Rect
	// Data holds Block.Area() values, row-major.
	Data []float64
}

// NewGrid allocates a zeroed grid covering block.
func NewGrid(block Rect) *Grid {
	return &Grid{Block: block, Data: make([]float64, block.Area())}
}

// NewGridFor allocates the grid for rank under layout l.
func NewGridFor(l Layout, rank int) *Grid { return NewGrid(l.Block(rank)) }

// index converts global coordinates to the flat offset; the caller must
// ensure containment.
func (g *Grid) index(row, col int) int {
	return (row-g.Block.R0)*g.Block.Cols() + (col - g.Block.C0)
}

// At returns the value at global (row, col).
func (g *Grid) At(row, col int) float64 { return g.Data[g.index(row, col)] }

// Set stores v at global (row, col).
func (g *Grid) Set(row, col int, v float64) { g.Data[g.index(row, col)] = v }

// Fill sets every element from f(row, col) in global coordinates.
func (g *Grid) Fill(f func(row, col int) float64) {
	i := 0
	for r := g.Block.R0; r < g.Block.R1; r++ {
		for c := g.Block.C0; c < g.Block.C1; c++ {
			g.Data[i] = f(r, c)
			i++
		}
	}
}

// PackInto copies sub into dst, which must have sub.Area() elements; sub
// must lie inside the grid's block.
func (g *Grid) PackInto(sub Rect, dst []float64) {
	w := sub.Cols()
	for r := 0; r < sub.Rows(); r++ {
		srcOff := g.index(sub.R0+r, sub.C0)
		copy(dst[r*w:(r+1)*w], g.Data[srcOff:srcOff+w])
	}
}

// AppendPacked appends the wire encoding (wire.AppendFloat64s) of PackInto's
// output for sub to dst, row by row, without the intermediate []float64.
func (g *Grid) AppendPacked(dst []byte, sub Rect) ([]byte, error) {
	if !g.Block.ContainsRect(sub) {
		return dst, fmt.Errorf("decomp: pack %v outside block %v", sub, g.Block)
	}
	w := sub.Cols()
	for r := sub.R0; r < sub.R1; r++ {
		off := g.index(r, sub.C0)
		dst = wire.AppendFloat64s(dst, g.Data[off:off+w])
	}
	return dst, nil
}

// UnpackFrom decodes AppendPacked's encoding of sub, b, straight into the
// global sub-rectangle sub of this grid.
func (g *Grid) UnpackFrom(sub Rect, b []byte) error {
	if !g.Block.ContainsRect(sub) || len(b) != wire.Float64sSize(sub.Area()) {
		return fmt.Errorf("decomp: unpack %d bytes into %v of block %v", len(b), sub, g.Block)
	}
	w := sub.Cols()
	for r, row := sub.R0, wire.Float64sSize(w); r < sub.R1; r, b = r+1, b[row:] {
		off := g.index(r, sub.C0)
		_ = wire.DecodeFloat64sInto(b[:row], g.Data[off:off+w]) // lengths checked above
	}
	return nil
}

// Unpack copies a contiguous row-major buffer (as produced by PackInto) into
// the global sub-rectangle sub of this grid.
func (g *Grid) Unpack(sub Rect, vals []float64) error {
	if !g.Block.ContainsRect(sub) {
		return fmt.Errorf("decomp: unpack %v outside block %v", sub, g.Block)
	}
	if len(vals) != sub.Area() {
		return fmt.Errorf("decomp: unpack %v needs %d values, got %d", sub, sub.Area(), len(vals))
	}
	w := sub.Cols()
	for r := 0; r < sub.Rows(); r++ {
		dstOff := g.index(sub.R0+r, sub.C0)
		copy(g.Data[dstOff:dstOff+w], vals[r*w:(r+1)*w])
	}
	return nil
}
