package sim

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/decomp"
	"repro/internal/transport"
)

// newGroup builds comms for an n-process group over an in-memory network.
func newGroup(t *testing.T, n int) []*collective.Comm {
	t.Helper()
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() })
	comms := make([]*collective.Comm, n)
	for r := 0; r < n; r++ {
		ep, err := net.Register(transport.Proc("S", r))
		if err != nil {
			t.Fatal(err)
		}
		comms[r], err = collective.New(transport.NewDispatcher(ep), "S", r, n)
		if err != nil {
			t.Fatal(err)
		}
		comms[r].SetTimeout(20 * time.Second)
	}
	return comms
}

func rowLayout(t *testing.T, n, p int) decomp.RowBlock {
	t.Helper()
	l, err := decomp.NewRowBlock(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWaveSolverValidation(t *testing.T) {
	l := rowLayout(t, 16, 1)
	if _, err := NewWaveSolver(nil, l, 0, 1.0); err == nil {
		t.Error("CFL-violating dt accepted")
	}
	l4 := rowLayout(t, 16, 4)
	if _, err := NewWaveSolver(nil, l4, 0, -1); err == nil {
		t.Error("nil comm with 4 procs accepted")
	}
	lr, err := decomp.NewRowBlock(16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWaveSolver(nil, lr, 0, -1); err == nil {
		t.Error("non-square grid accepted")
	}
	s, err := NewWaveSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetForcing(make([]float64, 3)); err == nil {
		t.Error("wrong forcing size accepted")
	}
	if s.N() != 16 || s.Block() != l.Block(0) || s.Dt() <= 0 {
		t.Error("accessors wrong")
	}
}

// TestWaveStandingMode checks the free solver against the analytic standing
// wave u = sin(pi x) sin(pi y) cos(sqrt(2) pi t).
func TestWaveStandingMode(t *testing.T) {
	const n = 48
	l := rowLayout(t, n, 1)
	s, err := NewWaveSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	omega := math.Sqrt2 * math.Pi
	s.SetInitial(
		func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) },
		func(x, y float64) float64 { return 0 },
	)
	steps := int(0.5 / s.Dt())
	for k := 0; k < steps; k++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tEnd := s.Time()
	h := 1 / float64(n+1)
	maxErr := 0.0
	i := 0
	for r := 0; r < n; r++ {
		y := float64(r+1) * h
		for c := 0; c < n; c++ {
			x := float64(c+1) * h
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Cos(omega*tEnd)
			if e := math.Abs(s.Local()[i] - want); e > maxErr {
				maxErr = e
			}
			i++
		}
	}
	if maxErr > 0.05 {
		t.Errorf("max error %g vs analytic standing wave", maxErr)
	}
}

// runParallelWave runs a p-process wave solve and returns each rank's final
// local block.
func runParallelWave(t *testing.T, n, p, steps int, f Forcing) [][]float64 {
	t.Helper()
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
			s, err := NewWaveSolver(comm, l, r, -1)
			if err != nil {
				errs[r] = err
				return
			}
			s.SetInitial(
				func(x, y float64) float64 { return math.Sin(2*math.Pi*x) * math.Sin(math.Pi*y) },
				func(x, y float64) float64 { return x * (1 - x) * y * (1 - y) },
			)
			field := NewField(l, r, f)
			buf := make([]float64, s.Block().Area())
			for k := 0; k < steps; k++ {
				field.Sample(s.Time(), buf)
				if err := s.SetForcing(buf); err != nil {
					errs[r] = err
					return
				}
				if err := s.Step(); err != nil {
					errs[r] = err
					return
				}
			}
			local := make([]float64, len(s.Local()))
			copy(local, s.Local())
			out[r] = local
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

// TestWaveParallelMatchesSerial: the distributed solve must be bitwise
// identical to the single-process solve (same stencil, same halo values).
func TestWaveParallelMatchesSerial(t *testing.T) {
	const n, steps = 24, 40
	serial := runParallelWave(t, n, 1, steps, PulseForcing)[0]
	for _, p := range []int{2, 3, 4} {
		blocks := runParallelWave(t, n, p, steps, PulseForcing)
		l := rowLayout(t, n, p)
		for r := 0; r < p; r++ {
			b := l.Block(r)
			for i := 0; i < b.Area(); i++ {
				row := b.R0 + i/b.Cols()
				col := i % b.Cols()
				want := serial[row*n+col]
				if blocks[r][i] != want {
					t.Fatalf("p=%d rank %d element (%d,%d): %v != serial %v",
						p, r, row, col, blocks[r][i], want)
				}
			}
		}
	}
}

// TestWaveEnergyBounded: with zero forcing the leapfrog scheme under CFL
// keeps the solution bounded over many steps.
func TestWaveEnergyBounded(t *testing.T) {
	l := rowLayout(t, 32, 1)
	s, err := NewWaveSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(
		func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y) },
		func(x, y float64) float64 { return 0 },
	)
	norm0, err := s.L2Norm()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2000; k++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	norm, err := s.L2Norm()
	if err != nil {
		t.Fatal(err)
	}
	if norm > 2*norm0 || math.IsNaN(norm) {
		t.Errorf("norm grew from %g to %g over 2000 steps", norm0, norm)
	}
}

// TestWaveParallelNorm: reductions work across the group.
func TestWaveParallelNorm(t *testing.T) {
	const n, p = 16, 4
	comms := newGroup(t, p)
	l := rowLayout(t, n, p)
	var wg sync.WaitGroup
	norms := make([]float64, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := NewWaveSolver(comms[r], l, r, -1)
			if err != nil {
				errs[r] = err
				return
			}
			s.SetInitial(func(x, y float64) float64 { return 1 }, func(x, y float64) float64 { return 0 })
			norms[r], errs[r] = s.L2Norm()
			if errs[r] != nil {
				return
			}
			if _, err := s.MaxAbs(); err != nil {
				errs[r] = err
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if math.Abs(norms[r]-norms[0]) > 1e-12 {
			t.Errorf("norms differ across ranks: %v", norms)
		}
	}
	// All-ones on n^2 points: norm = h * n.
	h := 1 / float64(n+1)
	want := h * float64(n)
	if math.Abs(norms[0]-want) > 1e-12 {
		t.Errorf("norm %v, want %v", norms[0], want)
	}
}

// TestHeatDecay: with zero forcing the (1,1) mode decays like
// exp(-2 pi^2 t).
func TestHeatDecay(t *testing.T) {
	const n = 32
	l := rowLayout(t, n, 1)
	s, err := NewHeatSolver(nil, l, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) })
	tEnd := 0.02
	for s.Time() < tEnd {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.MaxAbs()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2 * math.Pi * math.Pi * s.Time())
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("peak after t=%g: %g, want ~%g", s.Time(), got, want)
	}
}

// TestHeatParallelMatchesSerial mirrors the wave test for the heat solver.
func TestHeatParallelMatchesSerial(t *testing.T) {
	const n, steps, p = 16, 50, 4
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
				s.SetInitial(func(x, y float64) float64 { return x * y })
				field := NewField(l, r, PulseForcing)
				buf := make([]float64, s.Block().Area())
				for k := 0; k < steps; k++ {
					field.Sample(s.Time(), buf)
					s.SetForcing(buf)
					if err := s.Step(); err != nil {
						errs[r] = err
						return
					}
				}
				local := make([]float64, len(s.Local()))
				copy(local, s.Local())
				out[r] = local
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
	serial := run(1)[0]
	blocks := run(p)
	l := rowLayout(t, n, p)
	for r := 0; r < p; r++ {
		b := l.Block(r)
		for i := 0; i < b.Area(); i++ {
			row := b.R0 + i/b.Cols()
			col := i % b.Cols()
			if blocks[r][i] != serial[row*n+col] {
				t.Fatalf("rank %d element (%d,%d): %v != %v", r, row, col, blocks[r][i], serial[row*n+col])
			}
		}
	}
}

func TestHeatValidation(t *testing.T) {
	l := rowLayout(t, 8, 1)
	if _, err := NewHeatSolver(nil, l, 0, 1.0); err == nil {
		t.Error("unstable dt accepted")
	}
	l4 := rowLayout(t, 8, 4)
	if _, err := NewHeatSolver(nil, l4, 0, -1); err == nil {
		t.Error("nil comm with 4 procs accepted")
	}
	s, _ := NewHeatSolver(nil, l, 0, -1)
	if err := s.SetForcing(make([]float64, 1)); err == nil {
		t.Error("wrong forcing size accepted")
	}
	if s.Dt() <= 0 || s.Block() != l.Block(0) {
		t.Error("accessors wrong")
	}
}

func TestFieldSampling(t *testing.T) {
	l := rowLayout(t, 4, 2)
	f := NewField(l, 1, func(tm, x, y float64) float64 { return tm + 10*x + 100*y })
	vals := make([]float64, f.Block.Area())
	if len(vals) != 8 {
		t.Fatalf("len %d", len(vals))
	}
	f.Sample(2, vals)
	h := f.H()
	// First element of rank 1's block: global (2, 0) -> x=h, y=3h.
	want := 2 + 10*h + 100*3*h
	if math.Abs(vals[0]-want) > 1e-12 {
		t.Errorf("vals[0] = %v, want %v", vals[0], want)
	}
}

func TestForcingFunctions(t *testing.T) {
	if PulseForcing(0.3, 0.5, 0.5) == 0 && PulseForcing(0.3, 0.55, 0.5) == 0 {
		t.Error("PulseForcing identically zero near center")
	}
	for _, tm := range []float64{0, 1.7, 40} {
		v := PulseForcing(tm, 0.25, 0.75)
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 5 {
			t.Errorf("PulseForcing(%v) = %v, want finite and within its amplitude 5", tm, v)
		}
	}
}
