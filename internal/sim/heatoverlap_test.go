package sim

import (
	"sync"
	"testing"

	"repro/internal/collective"
)

// TestHeatOverlappedMatchesBlocking: a forced heat solve on row bands of
// unequal height (20 rows over 3 ranks) is bitwise identical to the serial
// solve.
func TestHeatOverlappedMatchesBlocking(t *testing.T) {
	const n, steps = 20, 40
	run := func(p int) [][]float64 {
		comms := newGroup(t, p)
		l := rowLayout(t, n, p)
		out := make([][]float64, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var comm *collective.Comm
				if p > 1 {
					comm = comms[r]
				}
				s, err := NewHeatSolver(comm, l, r, -1)
				if err != nil {
					errs[r] = err
					return
				}
				s.SetInitial(func(x, y float64) float64 { return x * (1 - x) * y })
				field := NewField(l, r, PulseForcing)
				buf := make([]float64, s.Block().Area())
				for k := 0; k < steps; k++ {
					field.Sample(s.Time(), buf)
					s.SetForcing(buf)
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
		return out
	}
	matchSerial(t, n, 3, run(3), run(1)[0])
}

// TestHeatOverlappedSingleProc: a one-process heat solver steps without a
// Comm.
func TestHeatOverlappedSingleProc(t *testing.T) {
	l := rowLayout(t, 8, 1)
	s, err := NewHeatSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(x, y float64) float64 { return 1 })
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Time() <= 0 {
		t.Error("time did not advance")
	}
}
