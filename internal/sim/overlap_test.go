package sim

import (
	"sync"
	"testing"
	"time"
)

// matchSerial fails unless every rank's block of a p-rank row-band solve of
// an n x n grid equals the same rows of the serial solve, bit for bit.
func matchSerial(t *testing.T, n, p int, blocks [][]float64, serial []float64) {
	t.Helper()
	l := rowLayout(t, n, p)
	for r := 0; r < p; r++ {
		b := l.Block(r)
		for i := 0; i < b.Area(); i++ {
			row, col := b.R0+i/b.Cols(), i%b.Cols()
			if blocks[r][i] != serial[row*n+col] {
				t.Fatalf("p=%d rank %d element (%d,%d): %v != serial %v", p, r, row, col, blocks[r][i], serial[row*n+col])
			}
		}
	}
}

// TestOverlappedMatchesBlocking: a forced solve on row bands of unequal
// height (25 rows over 3 ranks) is bitwise identical to the serial solve.
func TestOverlappedMatchesBlocking(t *testing.T) {
	const n, steps, p = 25, 30, 3
	serial := runParallelWave(t, n, 1, steps, PulseForcing)[0]
	matchSerial(t, n, p, runParallelWave(t, n, p, steps, PulseForcing), serial)
}

// TestOverlappedSingleProc: a one-process solver steps without a Comm.
func TestOverlappedSingleProc(t *testing.T) {
	l := rowLayout(t, 8, 1)
	s, err := NewWaveSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(x, y float64) float64 { return x }, func(x, y float64) float64 { return 0 })
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 1 {
		t.Errorf("steps %d", s.Steps())
	}
}

// TestOverlappedSingleRowBands: blocks of height 1, whose every row borders
// a halo, still match the serial solve.
func TestOverlappedSingleRowBands(t *testing.T) {
	const n, p, steps = 4, 4, 10 // one row per rank
	serial := runParallelWave(t, n, 1, steps, PulseForcing)[0]
	matchSerial(t, n, p, runParallelWave(t, n, p, steps, PulseForcing), serial)
}

// TestOverlappedDriftAllowed: halo sends do not wait for the receiver, so
// a rank may lead its neighbor by an iteration (the paper's condition for
// buddy-help to help: loose internal synchronization). Rank 0 stalls before
// every other step; the solve neither deadlocks nor changes.
func TestOverlappedDriftAllowed(t *testing.T) {
	const n, p, steps = 8, 2, 50
	comms := newGroup(t, p)
	l := rowLayout(t, n, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := NewWaveSolver(comms[r], l, r, -1)
			if err != nil {
				errs[r] = err
				return
			}
			s.SetInitial(func(x, y float64) float64 { return x * y }, func(x, y float64) float64 { return 0 })
			for k := 0; k < steps; k++ {
				if r == 0 && k%2 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
				if errs[r] = s.Step(); errs[r] != nil {
					return
				}
			}
			out[r] = append([]float64(nil), s.Local()...)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	serial, err := NewWaveSolver(nil, rowLayout(t, n, 1), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetInitial(func(x, y float64) float64 { return x * y }, func(x, y float64) float64 { return 0 })
	for k := 0; k < steps; k++ {
		if err := serial.Step(); err != nil {
			t.Fatal(err)
		}
	}
	matchSerial(t, n, p, out, serial.Local())
}
