package decomp

import (
	"testing"
	"testing/quick"
)

// checkScheduleCovers asserts a schedule's transfers exactly cover region:
// each destination element of region receives exactly one value, and every
// sub-rect lies in both the source's and destination's blocks.
func checkScheduleCovers(t *testing.T, src, dst Layout, region Rect, plan []Transfer) {
	t.Helper()
	rows, cols := src.Shape()
	covered := make([]int, rows*cols)
	for _, tr := range plan {
		if !src.Block(tr.From).ContainsRect(tr.Sub) {
			t.Fatalf("transfer %+v outside source block %v", tr, src.Block(tr.From))
		}
		if !dst.Block(tr.To).ContainsRect(tr.Sub) {
			t.Fatalf("transfer %+v outside dest block %v", tr, dst.Block(tr.To))
		}
		if !region.ContainsRect(tr.Sub) {
			t.Fatalf("transfer %+v outside region %v", tr, region)
		}
		for r := tr.Sub.R0; r < tr.Sub.R1; r++ {
			for c := tr.Sub.C0; c < tr.Sub.C1; c++ {
				covered[r*cols+c]++
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := 0
			if region.Contains(r, c) {
				want = 1
			}
			if covered[r*cols+c] != want {
				t.Fatalf("element (%d,%d) covered %d times, want %d", r, c, covered[r*cols+c], want)
			}
		}
	}
}

func TestFullScheduleCoverage(t *testing.T) {
	cases := []struct{ src, dst Layout }{
		{mustLayout(NewBlock2D(16, 16, 2, 2)), mustLayout(NewRowBlock(16, 16, 4))},
		{mustLayout(NewRowBlock(16, 16, 3)), mustLayout(NewColBlock(16, 16, 5))},
		{mustLayout(NewRowBlock(9, 9, 2)), mustLayout(NewRowBlock(9, 9, 2))},
		{mustLayout(NewBlock2D(12, 10, 3, 2)), mustLayout(NewBlock2D(12, 10, 2, 3))},
	}
	for _, c := range cases {
		plan, err := FullSchedule(c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		checkScheduleCovers(t, c.src, c.dst, Bounds(c.src), plan)
	}
}

func TestRegionSchedule(t *testing.T) {
	src := mustLayout(NewBlock2D(16, 16, 2, 2))
	dst := mustLayout(NewRowBlock(16, 16, 4))
	region := NewRect(3, 5, 11, 13)
	plan, err := Schedule(src, dst, region)
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleCovers(t, src, dst, region, plan)
}

func TestScheduleShapeMismatch(t *testing.T) {
	src := mustLayout(NewRowBlock(8, 8, 2))
	dst := mustLayout(NewRowBlock(8, 9, 2))
	if _, err := FullSchedule(src, dst); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestScheduleRegionOutOfBounds(t *testing.T) {
	src := mustLayout(NewRowBlock(8, 8, 2))
	if _, err := Schedule(src, src, NewRect(0, 0, 9, 8)); err == nil {
		t.Error("out-of-bounds region accepted")
	}
}

func TestScheduleIdentityIsLocal(t *testing.T) {
	l := mustLayout(NewRowBlock(8, 8, 4))
	plan, err := FullSchedule(l, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range plan {
		if tr.From != tr.To {
			t.Errorf("identity redistribution has cross transfer %+v", tr)
		}
	}
	if len(plan) != 4 {
		t.Errorf("identity plan has %d transfers, want 4", len(plan))
	}
}

func TestOutgoingIncoming(t *testing.T) {
	src := mustLayout(NewBlock2D(8, 8, 2, 2))
	dst := mustLayout(NewRowBlock(8, 8, 4))
	plan, err := FullSchedule(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	nOut, nIn := 0, 0
	for r := 0; r < 4; r++ {
		nOut += len(Outgoing(plan, r))
		nIn += len(Incoming(plan, r))
	}
	if nOut != len(plan) || nIn != len(plan) {
		t.Errorf("partitions: out %d in %d plan %d", nOut, nIn, len(plan))
	}
	for _, tr := range Outgoing(plan, 2) {
		if tr.From != 2 {
			t.Errorf("Outgoing(2) returned %+v", tr)
		}
	}
	for _, tr := range Incoming(plan, 1) {
		if tr.To != 1 {
			t.Errorf("Incoming(1) returned %+v", tr)
		}
	}
}

// Property: a redistribution schedule conserves total area for random
// layout pairs.
func TestSchedulePropertyAreaConserved(t *testing.T) {
	f := func(rows, cols, p1, p2 uint8) bool {
		nr := int(rows%20) + 2
		nc := int(cols%20) + 2
		a := int(p1%4) + 1
		b := int(p2%4) + 1
		if a > nr || b > nc {
			return true // skip invalid
		}
		src, err := NewRowBlock(nr, nc, a)
		if err != nil {
			return false
		}
		dst, err := NewColBlock(nr, nc, b)
		if err != nil {
			return false
		}
		plan, err := FullSchedule(src, dst)
		if err != nil {
			return false
		}
		area := 0
		for _, tr := range plan {
			area += tr.Sub.Area()
		}
		return area == nr*nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRedistributeEndToEnd simulates a full redistribution through the wire
// encoding (AppendPacked/UnpackFrom, the coupled data plane's path) and
// verifies the destination grids reconstruct the source array exactly.
func TestRedistributeEndToEnd(t *testing.T) {
	src := mustLayout(NewBlock2D(12, 12, 2, 2))
	dst := mustLayout(NewRowBlock(12, 12, 3))
	value := func(r, c int) float64 { return float64(100*r + c) }

	srcGrids := make([]*Grid, src.Procs())
	for p := range srcGrids {
		srcGrids[p] = NewGridFor(src, p)
		srcGrids[p].Fill(value)
	}
	dstGrids := make([]*Grid, dst.Procs())
	for p := range dstGrids {
		dstGrids[p] = NewGridFor(dst, p)
	}

	plan, err := FullSchedule(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range plan {
		buf, err := srcGrids[tr.From].AppendPacked(nil, tr.Sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := dstGrids[tr.To].UnpackFrom(tr.Sub, buf); err != nil {
			t.Fatal(err)
		}
	}
	for p, g := range dstGrids {
		for r := g.Block.R0; r < g.Block.R1; r++ {
			for c := g.Block.C0; c < g.Block.C1; c++ {
				if g.At(r, c) != value(r, c) {
					t.Fatalf("dst %d (%d,%d) = %v, want %v", p, r, c, g.At(r, c), value(r, c))
				}
			}
		}
	}
}
