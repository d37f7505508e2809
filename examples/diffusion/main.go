// Diffusion: the paper's micro-benchmark workload with real numerics.
// Program F (4 processes, 2x2 blocks) computes the forcing field f(t,x,y)
// and exports it every step; program U (4 processes, row bands) solves
// u_tt = u_xx + u_yy + f with the leapfrog scheme, importing a fresh forcing
// field every 20 solver steps under approximate matching (REGL, tol 2.5).
// One process of F is artificially slowed; with buddy-help it skips the
// buffering of forcing versions that can never be matched.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/sim"
)

const coupling = `
F local builtin 4
U local builtin 4
#
F.f U.f REGL 2.5
`

var (
	n     = flag.Int("n", 64, "grid size (n x n interior points; paper: 1024)")
	steps = flag.Int("steps", 200, "U solver steps")
	every = flag.Int("every", 20, "U imports a fresh forcing every this many steps")
	buddy = flag.Bool("buddy", true, "enable buddy-help")
	slow  = flag.Duration("slow", 2*time.Millisecond, "extra per-export work of F's slow process")
)

func main() { flag.Parse(); run() }

// run is the example; main wraps it so a test can check what it prints.
func run() {
	cfg, err := config.ParseString(coupling)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(cfg, core.Options{BuddyHelp: *buddy, Timeout: 2 * time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	progF, progU := fw.MustProgram("F"), fw.MustProgram("U")
	fLayout, err := decomp.NewBlock2D(*n, *n, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	uLayout, err := decomp.NewRowBlock(*n, *n, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := progF.DefineRegion("f", fLayout); err != nil {
		log.Fatal(err)
	}
	if err := progU.DefineRegion("f", uLayout); err != nil {
		log.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		log.Fatal(err)
	}

	// F runs on a finer time scale than U's import epochs (multi-resolution
	// coupling): ten forcing steps of 0.1 per coupled exchange, continuing
	// one epoch past U's last request so every request resolves.
	requests := *steps / *every
	exports := (requests + 1) * 10
	var wg sync.WaitGroup

	// Program F: sample and export the forcing field at ts = 0.1, 0.2, ...
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := progF.Process(rank)
			field := sim.NewField(fLayout, rank, sim.PulseForcing)
			buf := make([]float64, field.Block.Area())
			for k := 1; k <= exports; k++ {
				ts := float64(k) / 10
				field.Sample(ts, buf)
				if rank == 3 {
					time.Sleep(*slow) // p_s: the slow process
				}
				if err := p.Export("f", ts, buf); err != nil {
					log.Fatal(err)
				}
			}
		}(rank)
	}

	// Program U: leapfrog wave solve, importing forcing every `every` steps.
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := progU.Process(rank)
			solver, err := sim.NewWaveSolver(p.Comm(), uLayout, rank, -1)
			if err != nil {
				log.Fatal(err)
			}
			solver.SetInitial(
				func(x, y float64) float64 { return 0 },
				func(x, y float64) float64 { return 0 },
			)
			forcing := make([]float64, solver.Block().Area())
			for k := 0; k < *steps; k++ {
				if k%*every == 0 {
					// Coupled exchange: ask for the forcing at the coupled
					// time k/every+1 (each import epoch advances one unit).
					reqTS := float64(k / *every + 1)
					res, err := p.Import("f", reqTS, forcing)
					if err != nil {
						log.Fatal(err)
					}
					if res.Matched {
						if err := solver.SetForcing(forcing); err != nil {
							log.Fatal(err)
						}
						if rank == 0 {
							fmt.Printf("step %4d: imported forcing @%g (requested @%g)\n",
								k, res.MatchTS, reqTS)
						}
					}
				}
				if err := solver.Step(); err != nil {
					log.Fatal(err)
				}
			}
			norm, err := solver.L2Norm()
			if err != nil {
				log.Fatal(err)
			}
			if rank == 0 {
				fmt.Printf("U finished %d steps, t=%.4f, |u|_2 = %.6f\n", *steps, solver.Time(), norm)
			}
		}(rank)
	}

	wg.Wait()
	if err := fw.Err(); err != nil {
		log.Fatal(err)
	}

	stats, err := progF.Process(3).ExportStats("f")
	if err != nil {
		log.Fatal(err)
	}
	st := stats["U.f"]
	fmt.Printf("slow process p_s: %d exports, %d memcpys, %d skips, %d transfers, T_ub %v\n",
		st.Exports, st.Copies, st.Skips, st.Sends, st.UnnecessaryTime.Round(time.Microsecond))
}
