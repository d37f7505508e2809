// Package repro's root benchmark suite regenerates the paper's evaluation:
// one benchmark per figure (Figure 4(a)-(d) export-time series, the Figure
// 5/7/8 scenario replays, the T_ub ablation of Equations (1)-(2)) plus the
// redistribution, finite-buffer and simulation kernels. Run with
//
//	go test -bench=. -benchmem
//
// It is a paper-shape smoke, not the performance gate: per-layer costs
// (match, buffer, wire, transport, rep, collectives) are `bash bench/run.sh`.
// Figure-4 benchmarks are scaled down by default; set -figfull to run the
// paper-sized 1001-export configurations (seconds per run).
package repro

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/collective"
	"repro/internal/decomp"
	"repro/internal/harness"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/transport"
)

var figFull = flag.Bool("figfull", false, "run paper-sized Figure 4 benchmarks (1001 exports)")

// figure4Cfg builds the benchmark configuration for an importer of n procs.
func figure4Cfg(n int) harness.Figure4Config {
	cfg := harness.DefaultFigure4(n)
	if !*figFull {
		// Scaled: same regimes, ~20x shorter.
		cfg.GridN = 64
		cfg.Exports = 201
		cfg.FastWork = 100 * time.Microsecond
		cfg.SlowWork = 500 * time.Microsecond
		// Keep the paper's regime boundaries relative to p_s's 10ms cycle
		// (MatchEvery * SlowWork): U=4/8 at 30ms per process (slower than
		// F), U=16 just below 10ms, U=32 far below.
		switch {
		case n <= 8:
			cfg.ImporterWork = time.Duration(n) * 30 * time.Millisecond
		case n == 16:
			cfg.ImporterWork = 150 * time.Millisecond // 9.4ms per process
		default:
			cfg.ImporterWork = 75 * time.Millisecond // 2.3ms per process
		}
	}
	return cfg
}

// benchFigure4 runs one Figure-4 configuration per benchmark iteration and
// reports the paper's quantities as custom metrics.
func benchFigure4(b *testing.B, n int) {
	b.ReportAllocs()
	var res *harness.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFigure4(figure4Cfg(n))
		if err != nil {
			b.Fatal(err)
		}
	}
	s := res.ExportTimes
	b.ReportMetric(float64(harness.Window(s, 0, len(s)).Nanoseconds()), "export-ns/iter")
	b.ReportMetric(float64(harness.Window(s, len(s)-res.Cfg.MatchEvery, len(s)).Nanoseconds()), "tail-export-ns")
	b.ReportMetric(float64(res.Settle), "settle-iter")
	b.ReportMetric(float64(res.SlowStats.Copies), "memcpys")
	b.ReportMetric(float64(res.SlowStats.Skips), "skips")
}

// BenchmarkFigure4a: importer U with 4 processes (paper Figure 4(a): U
// slower than F, flat export time, everything buffered).
func BenchmarkFigure4a(b *testing.B) { benchFigure4(b, 4) }

// BenchmarkFigure4b: U with 8 processes (Figure 4(b): still slower than F).
func BenchmarkFigure4b(b *testing.B) { benchFigure4(b, 8) }

// BenchmarkFigure4c: U with 16 processes (Figure 4(c): U catches up,
// buddy-help gradually reaches the optimal state).
func BenchmarkFigure4c(b *testing.B) { benchFigure4(b, 16) }

// BenchmarkFigure4d: U with 32 processes (Figure 4(d): optimal state almost
// immediately).
func BenchmarkFigure4d(b *testing.B) { benchFigure4(b, 32) }

// BenchmarkTub reproduces the Equations (1)-(2) ablation: identical workload
// with buddy-help on vs off; the metric of interest is the memcpys and T_ub
// removed from the slow process.
func BenchmarkTub(b *testing.B) {
	var res *harness.TubResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunTub(figure4Cfg(16))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CopiesSaved()), "memcpys-saved")
	b.ReportMetric(float64(res.UnnecessarySaved().Nanoseconds()), "tub-saved-ns")
	b.ReportMetric(float64(res.Without.SlowStats.UnnecessaryTime.Nanoseconds()), "tub-off-ns")
	b.ReportMetric(float64(res.With.SlowStats.UnnecessaryTime.Nanoseconds()), "tub-on-ns")
}

// BenchmarkOptimalStateOnset sweeps the importer size (generalizing the
// Figure 4(c)-vs-4(d) settle-iteration comparison).
func BenchmarkOptimalStateOnset(b *testing.B) {
	var points []harness.OnsetPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = harness.RunOptimalStateOnset(figure4Cfg(16), []int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Settle), fmt.Sprintf("settle-U%d", pt.ImporterProcs))
	}
}

// Scenario benchmarks: Figures 5, 7 and 8 replayed per iteration (the cost
// of the full export-pipeline state machine on the paper's exact traces).
func BenchmarkScenarioFigure5(b *testing.B) { benchScenario(b, "5") }

// BenchmarkScenarioFigure7 replays Figure 7 (with buddy-help).
func BenchmarkScenarioFigure7(b *testing.B) { benchScenario(b, "7") }

// BenchmarkScenarioFigure8 replays Figure 8 (without buddy-help).
func BenchmarkScenarioFigure8(b *testing.B) { benchScenario(b, "8") }

func benchScenario(b *testing.B, fig string) {
	b.ReportAllocs()
	var sc *harness.Scenario
	for i := 0; i < b.N; i++ {
		var err error
		sc, err = harness.RunScenario(fig)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.Stats.Copies), "memcpys")
	b.ReportMetric(float64(sc.Stats.Skips), "skips")
}

// BenchmarkRedistribution measures an MxN redistribution (2x2 blocks to 8
// row bands of a 512x512 array) through PackInto/Unpack.
func BenchmarkRedistribution(b *testing.B) {
	src, _ := decomp.NewBlock2D(512, 512, 2, 2)
	dst, _ := decomp.NewRowBlock(512, 512, 8)
	plan, err := decomp.FullSchedule(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	srcGrids := make([]*decomp.Grid, src.Procs())
	for p := range srcGrids {
		srcGrids[p] = decomp.NewGridFor(src, p)
	}
	dstGrids := make([]*decomp.Grid, dst.Procs())
	for p := range dstGrids {
		dstGrids[p] = decomp.NewGridFor(dst, p)
	}
	b.SetBytes(512 * 512 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range plan {
			buf := make([]float64, tr.Sub.Area())
			srcGrids[tr.From].PackInto(tr.Sub, buf)
			if err := dstGrids[tr.To].Unpack(tr.Sub, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWaveStep measures one leapfrog step on a 256x256 grid (the
// importer program's computation).
func BenchmarkWaveStep(b *testing.B) {
	l, _ := decomp.NewRowBlock(256, 256, 1)
	s, err := sim.NewWaveSolver(nil, l, 0, -1)
	if err != nil {
		b.Fatal(err)
	}
	s.SetInitial(func(x, y float64) float64 { return x * y }, func(x, y float64) float64 { return 0 })
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveStepOverlapped measures the split-phase halo-overlap step on
// a 2-process 256x256 solve, against BenchmarkWaveStep's blocking exchange
// (the non-blocking-transfer style the paper's conclusion points to).
func BenchmarkWaveStepOverlapped(b *testing.B) {
	const n, p = 256, 2
	net := transport.NewMemNetwork()
	defer net.Close()
	l, _ := decomp.NewRowBlock(n, n, p)
	solvers := make([]*sim.WaveSolver, p)
	for r := 0; r < p; r++ {
		ep, _ := net.Register(transport.Proc("W", r))
		comm, _ := collective.New(transport.NewDispatcher(ep), "W", r, p)
		s, err := sim.NewWaveSolver(comm, l, r, -1)
		if err != nil {
			b.Fatal(err)
		}
		s.SetInitial(func(x, y float64) float64 { return x * y }, func(x, y float64) float64 { return 0 })
		solvers[r] = s
	}
	b.SetBytes(n * n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := solvers[r].StepOverlapped(); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkFiniteBuffer measures the buffered path under a finite capacity
// with recycling (the paper's future-work item on finite buffer space).
func BenchmarkFiniteBuffer(b *testing.B) {
	data := make([]float64, 64*1024)
	m, err := buffer.NewManager(buffer.Config{
		Policy:   match.REGL,
		Tol:      0.25,
		MaxBytes: int64(8 * len(data) * 4),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Offer(float64(i)+0.5, data); err != nil {
			b.Fatal(err)
		}
		// Advance the request horizon to keep the live set bounded.
		if _, err := m.OnRequest(float64(i) + 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForcingSample measures sampling the forcing field f(t,x,y) on a
// 512x512 block (program F's computation).
func BenchmarkForcingSample(b *testing.B) {
	l, _ := decomp.NewBlock2D(1024, 1024, 2, 2)
	f := sim.NewField(l, 0, sim.PulseForcing)
	dst := make([]float64, f.Block.Area())
	b.SetBytes(int64(8 * len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Sample(float64(i), dst)
	}
}
