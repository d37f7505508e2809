// Multiscale: a fine-time-scale source program coupled to a coarse diffusion
// model — the regime the paper's Section 4.1 motivates ("multiple objects
// exported ... fall in one acceptable region, which can easily occur in
// coupling physical simulation components that act on different time
// scales").
//
// The source program emits a heating field every fine tick; the heat program
// imports one field per coarse epoch and integrates u_t = lap u + f between
// exchanges. The source's processes are data sources in the paper's sense —
// they compute their fields without exchanging data with their peers every
// step — which is exactly the condition the paper gives (end of Section 5)
// for the fastest process to run ahead and make buddy-help effective. The
// example runs the coupling twice, buddy-help on and off, and prints the
// unnecessary-buffering (T_ub, Equations (1)-(2)) comparison for the slowest
// source process.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/sim"
)

const coupling = `
src  local builtin 2
heat local builtin 2
#
src.q heat.q REGL 40
`

var (
	n       = flag.Int("n", 48, "grid size")
	epochs  = flag.Int("epochs", 6, "coarse coupling epochs")
	ratio   = flag.Int("ratio", 100, "fine source ticks per coarse epoch")
	slowDur = flag.Duration("slow", 500*time.Microsecond, "extra work of the slow source process")
)

func main() {
	flag.Parse()

	withStats, err := run(*n, *epochs, *ratio, *slowDur, true)
	if err != nil {
		log.Fatal(err)
	}
	withoutStats, err := run(*n, *epochs, *ratio, *slowDur, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nslowest source process, buffering summary (paper Eq. (1)-(2)):")
	row := func(name string, st buffer.Stats) {
		fmt.Printf("  %-10s exports %-5d memcpys %-5d skips %-5d transfers %-3d unnecessary %-4d T_ub %v\n",
			name, st.Exports, st.Copies, st.Skips, st.Sends, st.UnnecessaryCopies,
			st.UnnecessaryTime.Round(time.Microsecond))
	}
	row("buddy on", withStats)
	row("buddy off", withoutStats)
	fmt.Printf("  buddy-help removed %d memcpys and %v of T_ub\n",
		withoutStats.Copies-withStats.Copies,
		(withoutStats.UnnecessaryTime - withStats.UnnecessaryTime).Round(time.Microsecond))
}

func run(n, epochs, ratio int, slowDur time.Duration, buddy bool) (buffer.Stats, error) {
	cfg, err := config.ParseString(coupling)
	if err != nil {
		return buffer.Stats{}, err
	}
	fw, err := core.New(cfg, core.Options{BuddyHelp: buddy, Timeout: 2 * time.Minute})
	if err != nil {
		return buffer.Stats{}, err
	}
	defer fw.Close()

	src, heat := fw.MustProgram("src"), fw.MustProgram("heat")
	srcLayout, err := decomp.NewColBlock(n, n, 2)
	if err != nil {
		return buffer.Stats{}, err
	}
	heatLayout, err := decomp.NewRowBlock(n, n, 2)
	if err != nil {
		return buffer.Stats{}, err
	}
	if err := src.DefineRegion("q", srcLayout); err != nil {
		return buffer.Stats{}, err
	}
	if err := heat.DefineRegion("q", heatLayout); err != nil {
		return buffer.Stats{}, err
	}
	if err := fw.Start(); err != nil {
		return buffer.Stats{}, err
	}

	exports := (epochs + 1) * ratio // run one epoch past the last request
	var wg sync.WaitGroup
	var runErr error
	var errOnce sync.Once
	fail := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err; fw.Close() })
		}
	}

	// Source program: fine-scale heating field, one export per tick. Rank 1
	// is the slow process p_s.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := src.Process(rank)
			field := sim.NewField(srcLayout, rank, sim.PulseForcing)
			buf := make([]float64, field.Block.Area())
			for k := 1; k <= exports; k++ {
				field.Sample(float64(k)/float64(ratio), buf)
				if rank == 1 {
					time.Sleep(slowDur)
				}
				if err := p.Export("q", float64(k), buf); err != nil {
					fail(err)
					return
				}
			}
		}(rank)
	}

	// Heat program: one import per epoch, then `ratio` diffusion steps with
	// the imported heating as forcing.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := heat.Process(rank)
			solver, err := sim.NewHeatSolver(p.Comm(), heatLayout, rank, -1)
			if err != nil {
				fail(err)
				return
			}
			solver.SetInitial(func(x, y float64) float64 { return 0 })
			forcing := make([]float64, solver.Block().Area())
			for j := 1; j <= epochs; j++ {
				res, err := p.Import("q", float64(j*ratio), forcing)
				if err != nil {
					fail(err)
					return
				}
				if !res.Matched {
					fail(fmt.Errorf("heat: no heating field @%d", j*ratio))
					return
				}
				if err := solver.SetForcing(forcing); err != nil {
					fail(err)
					return
				}
				for s := 0; s < ratio; s++ {
					if err := solver.Step(); err != nil {
						fail(err)
						return
					}
				}
				// MaxAbs is collective: every rank must participate.
				peak, err := solver.MaxAbs()
				if err != nil {
					fail(err)
					return
				}
				if rank == 0 && buddy {
					fmt.Printf("epoch %d: imported q@%g, heat peak %.6f\n", j, res.MatchTS, peak)
				}
			}
		}(rank)
	}

	wg.Wait()
	if runErr != nil {
		return buffer.Stats{}, runErr
	}
	if err := fw.Err(); err != nil {
		return buffer.Stats{}, err
	}
	stats, err := src.Process(1).ExportStats("q")
	if err != nil {
		return buffer.Stats{}, err
	}
	return stats["heat.q"].Stats, nil
}
