// Quickstart: the smallest complete coupling. A 2-process producer exports a
// distributed 8x8 field once per simulated time unit; a 2-process consumer
// imports it at coarser times under approximate matching (REGL, tolerance
// 0.5) — the consumer never needs to know who produces the data or when
// exactly it was produced.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
)

const coupling = `
producer local builtin 2
consumer local builtin 2
#
producer.field consumer.field REGL 0.5
`

func main() { run() }

// run is the example; main wraps it so a test can check what it prints.
func run() {
	cfg, err := config.ParseString(coupling)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(cfg, core.Options{BuddyHelp: true})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	const n = 8
	producer, consumer := fw.MustProgram("producer"), fw.MustProgram("consumer")
	prodLayout, _ := decomp.NewRowBlock(n, n, 2) // producer: row bands
	consLayout, _ := decomp.NewColBlock(n, n, 2) // consumer: column bands (MxN!)
	if err := producer.DefineRegion("field", prodLayout); err != nil {
		log.Fatal(err)
	}
	if err := consumer.DefineRegion("field", consLayout); err != nil {
		log.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup

	// Producer processes: export the field at t = 1, 2, ..., 12.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := producer.Process(rank)
			block, _ := p.Block("field")
			data := make([]float64, block.Area())
			for t := 1.0; t <= 12; t++ {
				i := 0
				for r := block.R0; r < block.R1; r++ {
					for c := block.C0; c < block.C1; c++ {
						data[i] = t*100 + float64(r*n+c)
						i++
					}
				}
				if err := p.Export("field", t, data); err != nil {
					log.Fatal(err)
				}
			}
		}(rank)
	}

	// Consumer processes: import at t = 4.2 and 9.7. With REGL/0.5 the
	// first request's acceptable region [3.7, 4.2] contains the export at 4
	// (MATCH); the second's region [9.2, 9.7] contains no export, so the
	// framework answers NO MATCH once the producers have passed it.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := consumer.Process(rank)
			block, _ := p.Block("field")
			dst := make([]float64, block.Area())
			for _, t := range []float64{4.2, 9.7} {
				res, err := p.Import("field", t, dst)
				if err != nil {
					log.Fatal(err)
				}
				if rank == 0 {
					if res.Matched {
						fmt.Printf("import @%.1f -> matched export @%g (corner value %.0f)\n",
							t, res.MatchTS, dst[0])
					} else {
						fmt.Printf("import @%.1f -> NO MATCH within tolerance\n", t)
					}
				}
			}
		}(rank)
	}

	wg.Wait()
	if err := fw.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart done")
}
