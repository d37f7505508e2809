package decomp

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

func TestGridAtSet(t *testing.T) {
	g := NewGrid(NewRect(2, 3, 5, 7))
	if len(g.Data) != 12 {
		t.Fatalf("data len %d", len(g.Data))
	}
	g.Set(2, 3, 1.5)
	g.Set(4, 6, -2)
	if g.At(2, 3) != 1.5 || g.At(4, 6) != -2 {
		t.Error("At/Set mismatch")
	}
	if g.Data[0] != 1.5 || g.Data[11] != -2 {
		t.Error("row-major placement wrong")
	}
}

func TestGridFill(t *testing.T) {
	g := NewGrid(NewRect(1, 1, 3, 4))
	g.Fill(func(r, c int) float64 { return float64(10*r + c) })
	if g.At(1, 1) != 11 || g.At(2, 3) != 23 {
		t.Errorf("fill produced %v", g.Data)
	}
}

func TestGridPackUnpack(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 4, 4))
	g.Fill(func(r, c int) float64 { return float64(r*4 + c) })
	sub := NewRect(1, 1, 3, 4)
	buf := make([]float64, sub.Area())
	g.PackInto(sub, buf)
	want := []float64{5, 6, 7, 9, 10, 11}
	for i, v := range want {
		if buf[i] != v {
			t.Fatalf("pack = %v, want %v", buf, want)
		}
	}
	h := NewGrid(NewRect(0, 0, 4, 4))
	if err := h.Unpack(sub, buf); err != nil {
		t.Fatal(err)
	}
	for r := sub.R0; r < sub.R1; r++ {
		for c := sub.C0; c < sub.C1; c++ {
			if h.At(r, c) != g.At(r, c) {
				t.Fatalf("unpack (%d,%d) = %v", r, c, h.At(r, c))
			}
		}
	}
	// Outside the sub-rect must stay zero.
	if h.At(0, 0) != 0 || h.At(3, 0) != 0 {
		t.Error("unpack wrote outside sub-rectangle")
	}
}

func TestGridPackErrors(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 4, 4))
	if b, err := g.AppendPacked([]byte{1}, NewRect(0, 0, 5, 4)); err == nil || len(b) != 1 {
		t.Errorf("pack outside block: %d bytes, %v", len(b), err)
	}
	if err := g.Unpack(NewRect(0, 0, 5, 4), nil); err == nil {
		t.Error("unpack outside block accepted")
	}
	if err := g.Unpack(NewRect(0, 0, 2, 2), make([]float64, 3)); err == nil {
		t.Error("unpack with wrong value count accepted")
	}
	if err := g.UnpackFrom(NewRect(0, 0, 5, 4), make([]byte, 160)); err == nil {
		t.Error("decode outside block accepted")
	}
	if err := g.UnpackFrom(NewRect(0, 0, 2, 2), make([]byte, 33)); err == nil {
		t.Error("decode with wrong byte count accepted")
	}
}

// TestGridAppendPackedUnpackFrom pins the fused pair to the two-step path it
// replaces: AppendPacked writes exactly wire.AppendFloat64s of PackInto's
// output, and UnpackFrom of those bytes writes what Unpack would.
func TestGridAppendPackedUnpackFrom(t *testing.T) {
	g := NewGrid(NewRect(2, 3, 7, 9))
	g.Fill(func(r, c int) float64 { return float64(r*100+c) + 0.25 })
	for _, sub := range []Rect{NewRect(3, 4, 6, 8), NewRect(2, 3, 7, 9), NewRect(4, 5, 5, 6), NewRect(4, 5, 4, 5)} {
		vals := make([]float64, sub.Area())
		g.PackInto(sub, vals)
		want := wire.AppendFloat64s([]byte{0xAA}, vals)
		got, err := g.AppendPacked([]byte{0xAA}, sub)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendPacked(%v) = %x, %v; want %x", sub, got, err, want)
		}
		h, ref := NewGrid(g.Block), NewGrid(g.Block)
		if err := h.UnpackFrom(sub, got[1:]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Unpack(sub, vals); err != nil {
			t.Fatal(err)
		}
		for i := range h.Data {
			if h.Data[i] != ref.Data[i] {
				t.Fatalf("UnpackFrom(%v): element %d = %v, want %v", sub, i, h.Data[i], ref.Data[i])
			}
		}
	}
}

func TestNewGridFor(t *testing.T) {
	l := mustLayout(NewRowBlock(8, 4, 2))
	g := NewGridFor(l, 1)
	if g.Block != l.Block(1) {
		t.Errorf("grid block %v, want %v", g.Block, l.Block(1))
	}
}
