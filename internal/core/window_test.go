package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/decomp"
)

// TestWindowedCoupling couples only a sub-rectangle (the paper's "shared
// boundary" case): the importer receives exactly the window and nothing
// else; importer processes whose blocks miss the window complete without
// waiting for data.
func TestWindowedCoupling(t *testing.T) {
	const size = 12
	window := decomp.NewRect(2, 3, 7, 9)
	cfg, err := config.ParseString(fmt.Sprintf(`
E local b 2
I local b 3
#
E.d I.d REGL 2.5 rect=%d:%d:%d:%d
`, window.R0, window.C0, window.R1, window.C1))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Connections[0].Windowed() || cfg.Connections[0].Window != window {
		t.Fatalf("window parsed as %v", cfg.Connections[0].Window)
	}
	f, err := New(cfg, Options{BuddyHelp: true, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	le, _ := decomp.NewRowBlock(size, size, 2)
	li, _ := decomp.NewRowBlock(size, size, 3)
	f.MustProgram("E").DefineRegion("d", le)
	f.MustProgram("I").DefineRegion("d", li)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, f.MustProgram("E"), func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= 12; k++ {
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, f.MustProgram("I"), func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		const sentinel = -7777.0
		for i := range dst {
			dst[i] = sentinel
		}
		res, err := p.Import("d", 10, dst)
		if err != nil {
			return err
		}
		if !res.Matched || res.MatchTS != 10 {
			return fmt.Errorf("resolved %+v", res)
		}
		g := decomp.Grid{Block: block, Data: dst}
		for r := block.R0; r < block.R1; r++ {
			for c := block.C0; c < block.C1; c++ {
				if window.Contains(r, c) {
					if got := g.At(r, c); got != cell(10, r, c) {
						return fmt.Errorf("in-window (%d,%d) = %v, want %v", r, c, got, cell(10, r, c))
					}
				} else if g.At(r, c) != sentinel {
					return fmt.Errorf("out-of-window (%d,%d) overwritten to %v", r, c, g.At(r, c))
				}
			}
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowOutsideBoundsRejected: Start validates the window.
func TestWindowOutsideBoundsRejected(t *testing.T) {
	cfg, err := config.ParseString("E local b 1\nI local b 1\n#\nE.d I.d REGL 1 rect=0:0:9:9\n")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, _ := decomp.NewRowBlock(4, 4, 1) // window 9x9 exceeds 4x4
	f.MustProgram("E").DefineRegion("d", l)
	f.MustProgram("I").DefineRegion("d", l)
	if err := f.Start(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("Start: %v", err)
	}
}

// TestWindowedCornerOnly: a window confined to one importer rank leaves all
// other ranks pieceless but the collective import still completes everywhere.
func TestWindowedCornerOnly(t *testing.T) {
	cfg, err := config.ParseString("E local b 1\nI local b 4\n#\nE.d I.d REGL 1 rect=0:0:2:2\n")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{BuddyHelp: true, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	le, _ := decomp.NewRowBlock(8, 8, 1)
	li, _ := decomp.NewRowBlock(8, 8, 4)
	f.MustProgram("E").DefineRegion("d", le)
	f.MustProgram("I").DefineRegion("d", li)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, f.MustProgram("E"), func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= 6; k++ {
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, f.MustProgram("I"), func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		res, err := p.Import("d", 5, dst)
		if err != nil {
			return err
		}
		if !res.Matched {
			return fmt.Errorf("no match")
		}
		// Only rank 0 (rows 0-1) intersects the window.
		if p.Rank() == 0 {
			g := decomp.Grid{Block: block, Data: dst}
			if g.At(0, 0) != cell(5, 0, 0) {
				return fmt.Errorf("window corner = %v", g.At(0, 0))
			}
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutSharedSnapshots: a region exported to two importers buffers one
// shared physical copy per timestamp, not one per connection.
func TestFanOutSharedSnapshots(t *testing.T) {
	cfg, err := config.ParseString(`
E local b 1
A local b 1
B local b 1
#
E.d A.d REGL 2.5
E.d B.d REGL 2.5
`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{BuddyHelp: true, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, _ := decomp.NewRowBlock(4, 4, 1)
	f.MustProgram("E").DefineRegion("d", l)
	f.MustProgram("A").DefineRegion("d", l)
	f.MustProgram("B").DefineRegion("d", l)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	p := f.MustProgram("E").Process(0)
	data := make([]float64, 16)
	for k := 1; k <= 5; k++ {
		if err := p.Export("d", float64(k), data); err != nil {
			t.Fatal(err)
		}
	}
	reg := p.exps["d"]
	if reg.store == nil {
		t.Fatal("fan-out region has no shared store")
	}
	// Both managers buffered all 5 versions (no requests yet), but the
	// store holds exactly 5 shared copies.
	live := reg.store.live()
	aAlias := lockedNumBuffered(reg.conns[0])
	bAlias := lockedNumBuffered(reg.conns[1])
	if live != 5 {
		t.Errorf("store holds %d versions, want 5", live)
	}
	if aAlias != 5 || bAlias != 5 {
		t.Errorf("managers hold %d/%d entries", aAlias, bAlias)
	}
	// Refcounting: a request on connection A frees its references; the
	// versions stay alive for B.
	imp := f.MustProgram("A").Process(0)
	dst := make([]float64, 16)
	res, err := imp.Import("d", 5, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.MatchTS != 5 {
		t.Fatalf("A import resolved %+v", res)
	}
	// Drain the async pipeline: the store releases a version on the sender
	// goroutine's TransferDone, which may lag the Import return.
	if err := p.Flush("d"); err != nil {
		t.Fatal(err)
	}
	liveAfter := reg.store.live()
	bAfter := lockedNumBuffered(reg.conns[1])
	if bAfter != 5 {
		t.Errorf("B lost entries: %d", bAfter)
	}
	if liveAfter != 5 {
		// A freed 1..2 (below the region) and dominated candidates, but B
		// still references everything, so all 5 stay live.
		t.Errorf("store live %d after A's request, want 5", liveAfter)
	}
	// B's request frees the last references to the dominated versions.
	impB := f.MustProgram("B").Process(0)
	resB, err := impB.Import("d", 5, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Matched {
		t.Fatal("B unmatched")
	}
	if err := p.Flush("d"); err != nil {
		t.Fatal(err)
	}
	liveEnd := reg.store.live()
	if liveEnd >= 5 {
		t.Errorf("store live %d after both requests, want < 5", liveEnd)
	}
}

// lockedNumBuffered reads a connection manager's entry count under its lock.
func lockedNumBuffered(ec *exportConn) int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.mgr.State().Entries)
}
