// Boundary: two physical models coupled only across a shared interface
// strip — the "shared boundaries ... between physical models" of the paper's
// introduction. An "atmosphere" model exports its full field every step, but
// the connection's rect window restricts the transfer to the four interface
// rows the "ocean" model needs as surface forcing. The ocean imports the
// strip on its own coarser schedule, pastes it into its forcing and
// integrates diffusion below the interface.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/sim"
)

var (
	n      = flag.Int("n", 32, "grid size")
	strip  = flag.Int("strip", 4, "interface rows coupled")
	epochs = flag.Int("epochs", 5, "coupling epochs")
	ratio  = flag.Int("ratio", 10, "atmosphere steps per ocean epoch")
)

func main() { flag.Parse(); run() }

// run is the example; main wraps it so a test can check what it prints.
func run() {
	coupling := fmt.Sprintf(`
atm   local builtin 2
ocean local builtin 2
#
atm.sfc ocean.sfc REGL 2.5 rect=0:0:%d:%d
`, *strip, *n)
	cfg, err := config.ParseString(coupling)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(cfg, core.Options{BuddyHelp: true, Timeout: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	atm, ocean := fw.MustProgram("atm"), fw.MustProgram("ocean")
	la, _ := decomp.NewColBlock(*n, *n, 2)
	lo, _ := decomp.NewRowBlock(*n, *n, 2)
	if err := atm.DefineRegion("sfc", la); err != nil {
		log.Fatal(err)
	}
	if err := ocean.DefineRegion("sfc", lo); err != nil {
		log.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		log.Fatal(err)
	}

	exports := (*epochs + 1) * *ratio
	var wg sync.WaitGroup

	// Atmosphere: a drifting wave field exported every fine step.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := atm.Process(rank)
			block, _ := p.Block("sfc")
			data := make([]float64, block.Area())
			for k := 1; k <= exports; k++ {
				t := float64(k)
				i := 0
				for r := block.R0; r < block.R1; r++ {
					for c := block.C0; c < block.C1; c++ {
						data[i] = math.Sin(t/9+float64(c)/5) * math.Exp(-float64(r)/8)
						i++
					}
				}
				if err := p.Export("sfc", t, data); err != nil {
					log.Fatal(err)
				}
			}
		}(rank)
	}

	// Ocean: import the interface strip once per epoch; use it as surface
	// forcing for a diffusion solve.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := ocean.Process(rank)
			block, _ := p.Block("sfc")
			solver, err := sim.NewHeatSolver(p.Comm(), lo, rank, -1)
			if err != nil {
				log.Fatal(err)
			}
			solver.SetInitial(func(x, y float64) float64 { return 0 })
			surface := make([]float64, block.Area())
			forcing := make([]float64, block.Area())
			for j := 1; j <= *epochs; j++ {
				res, err := p.Import("sfc", float64(j**ratio), surface)
				if err != nil {
					log.Fatal(err)
				}
				if !res.Matched {
					log.Fatalf("ocean: no surface field @%d", j**ratio)
				}
				// The imported strip drives the forcing; rows outside the
				// window stay zero (only rank 0's block intersects it when
				// strip <= n/2).
				copy(forcing, surface)
				if err := solver.SetForcing(forcing); err != nil {
					log.Fatal(err)
				}
				for s := 0; s < *ratio; s++ {
					if err := solver.Step(); err != nil {
						log.Fatal(err)
					}
				}
				peak, err := solver.MaxAbs()
				if err != nil {
					log.Fatal(err)
				}
				if rank == 0 {
					fmt.Printf("epoch %d: surface strip @%g, ocean peak %.6f\n", j, res.MatchTS, peak)
				}
			}
		}(rank)
	}

	wg.Wait()
	if err := fw.Err(); err != nil {
		log.Fatal(err)
	}

	stats, err := atm.Process(1).ExportStats("sfc")
	if err != nil {
		log.Fatal(err)
	}
	st := stats["ocean.sfc"]
	fmt.Printf("atmosphere rank 1: %d exports, %d memcpys, %d skips, %d strip transfers\n",
		st.Exports, st.Copies, st.Skips, st.Sends)
}
