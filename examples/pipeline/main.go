// Pipeline: a three-stage coupled chain source -> filter -> sink, showing a
// program that both imports and exports. The source produces a noisy field;
// the filter imports it, applies a local smoothing stencil, and exports the
// result on its own (coarser) time scale; the sink imports the smoothed
// field. Each stage is a parallel program with its own decomposition, wired
// only by the configuration file.
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
)

const coupling = `
source local builtin 2
filter local builtin 2
sink   local builtin 1
#
source.raw    filter.raw    REGL 1.0
filter.smooth sink.smooth   REGL 2.0
`

var (
	n     = flag.Int("n", 32, "grid size")
	ticks = flag.Int("ticks", 60, "source export count")
)

func main() { flag.Parse(); run() }

// run is the example; main wraps it so a test can check what it prints.
func run() {
	cfg, err := config.ParseString(coupling)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(cfg, core.Options{BuddyHelp: true, Timeout: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	source, filter, sink := fw.MustProgram("source"), fw.MustProgram("filter"), fw.MustProgram("sink")
	srcLayout, _ := decomp.NewRowBlock(*n, *n, 2)
	fltLayout, _ := decomp.NewColBlock(*n, *n, 2) // redistribution between stages
	snkLayout, _ := decomp.NewRowBlock(*n, *n, 1)
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(source.DefineRegion("raw", srcLayout))
	must(filter.DefineRegion("raw", fltLayout))
	must(filter.DefineRegion("smooth", fltLayout))
	must(sink.DefineRegion("smooth", snkLayout))
	must(fw.Start())

	var wg sync.WaitGroup

	// Source: a drifting interference pattern, exported every tick.
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := source.Process(rank)
			block, _ := p.Block("raw")
			data := make([]float64, block.Area())
			for k := 1; k <= *ticks; k++ {
				t := float64(k)
				i := 0
				for r := block.R0; r < block.R1; r++ {
					for c := block.C0; c < block.C1; c++ {
						data[i] = math.Sin(float64(r)/3+t/5) * math.Cos(float64(c)/4-t/7)
						i++
					}
				}
				must(p.Export("raw", t, data))
			}
		}(rank)
	}

	// Filter: import raw every 2 ticks, smooth, export on a half-rate clock.
	filterOuts := *ticks / 2
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := filter.Process(rank)
			block, _ := p.Block("raw")
			raw := make([]float64, block.Area())
			smooth := make([]float64, block.Area())
			for j := 1; j <= filterOuts; j++ {
				res, err := p.Import("raw", float64(2*j), raw)
				must(err)
				if !res.Matched {
					log.Fatalf("filter: no raw field @%d", 2*j)
				}
				smoothInto(block, raw, smooth)
				must(p.Export("smooth", float64(2*j), smooth))
			}
		}(rank)
	}

	// Sink: import the smoothed field every 4 source ticks and report its
	// range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := sink.Process(0)
		dst := make([]float64, *n**n)
		for j := 1; j <= *ticks/4; j++ {
			reqTS := float64(4 * j)
			res, err := p.Import("smooth", reqTS, dst)
			must(err)
			if !res.Matched {
				log.Fatalf("sink: no smooth field @%g", reqTS)
			}
			lo, hi := dst[0], dst[0]
			for _, v := range dst {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Printf("sink: smooth@%g in [%.4f, %.4f]\n", res.MatchTS, lo, hi)
		}
	}()

	wg.Wait()
	must(fw.Err())
	fmt.Println("pipeline done")
}

// smoothInto applies a 3x3 box filter within the local block (block-local
// boundary handling keeps the example short; a production filter would halo
// exchange first).
func smoothInto(block decomp.Rect, src, dst []float64) {
	w := block.Cols()
	hgt := block.Rows()
	at := func(r, c int) float64 {
		if r < 0 {
			r = 0
		}
		if r >= hgt {
			r = hgt - 1
		}
		if c < 0 {
			c = 0
		}
		if c >= w {
			c = w - 1
		}
		return src[r*w+c]
	}
	for r := 0; r < hgt; r++ {
		for c := 0; c < w; c++ {
			sum := 0.0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					sum += at(r+dr, c+dc)
				}
			}
			dst[r*w+c] = sum / 9
		}
	}
}
