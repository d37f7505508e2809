package core

import (
	"fmt"
	"repro/internal/testutil"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// buildCoupling builds a framework with exporter program E (2x2 grid over 4
// procs... configurable) exporting region "d" to importer program I.
func buildCoupling(t *testing.T, opts Options, expProcs, impProcs, size int, policyLine string) *Framework {
	t.Helper()
	cfg, err := config.ParseString(fmt.Sprintf(`
E local /bin/e %d
I local /bin/i %d
#
E.d I.d %s
`, expProcs, impProcs, policyLine))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Timeout == 0 {
		opts.Timeout = 20 * time.Second
	}
	f, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	expLayout, err := decomp.NewRowBlock(size, size, expProcs)
	if err != nil {
		t.Fatal(err)
	}
	impLayout, err := decomp.NewColBlock(size, size, impProcs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MustProgram("E").DefineRegion("d", expLayout); err != nil {
		t.Fatal(err)
	}
	if err := f.MustProgram("I").DefineRegion("d", impLayout); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

// cell is the test data function: the value of grid element (r,c) at
// timestamp ts.
func cell(ts float64, r, c int) float64 { return ts*1e6 + float64(r*1000+c) }

// fillBlock builds the local block data of a process for timestamp ts.
func fillBlock(block decomp.Rect, ts float64) []float64 {
	g := decomp.NewGrid(block)
	g.Fill(func(r, c int) float64 { return cell(ts, r, c) })
	return g.Data
}

// runProcs runs fn concurrently for each process of prog and collects errors.
func runProcs(t *testing.T, prog *Program, fn func(p *Process) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, prog.Procs())
	for r := 0; r < prog.Procs(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(prog.Process(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("%s rank %d: %v", prog.Name(), r, err)
		}
	}
}

// TestEndToEndCoupling runs the full protocol: a 2-process exporter feeding
// a 3-process importer across mismatched layouts, REGL matching, and
// verifies every imported element equals the matched version's data.
func TestEndToEndCoupling(t *testing.T) {
	f := buildCoupling(t, Options{BuddyHelp: true}, 2, 3, 12, "REGL 2.5")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, err := p.Block("d")
			if err != nil {
				return err
			}
			for k := 1; k <= 25; k++ {
				ts := float64(k)
				if err := p.Export("d", ts, fillBlock(block, ts)); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	runProcs(t, imp, func(p *Process) error {
		block, err := p.Block("d")
		if err != nil {
			return err
		}
		dst := make([]float64, block.Area())
		for _, reqTS := range []float64{5, 10, 20} {
			res, err := p.Import("d", reqTS, dst)
			if err != nil {
				return err
			}
			if !res.Matched {
				return fmt.Errorf("request @%g: no match", reqTS)
			}
			// REGL: the match is the largest export <= reqTS; exports are
			// integers, so the match must be reqTS itself.
			if res.MatchTS != reqTS {
				return fmt.Errorf("request @%g matched %g", reqTS, res.MatchTS)
			}
			g := decomp.Grid{Block: block, Data: dst}
			for r := block.R0; r < block.R1; r++ {
				for c := block.C0; c < block.C1; c++ {
					if got := g.At(r, c); got != cell(res.MatchTS, r, c) {
						return fmt.Errorf("req @%g element (%d,%d) = %v, want %v",
							reqTS, r, c, got, cell(res.MatchTS, r, c))
					}
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

// TestNoMatchAnswer: a request whose region the exporter skipped entirely
// resolves to NO MATCH on every importer process.
func TestNoMatchAnswer(t *testing.T) {
	f := buildCoupling(t, Options{BuddyHelp: true}, 2, 2, 8, "REGL 0.25")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, _ := p.Block("d")
			for _, ts := range []float64{1, 2, 8, 9} {
				if err := p.Export("d", ts, fillBlock(block, ts)); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		res, err := p.Import("d", 5, dst) // region [4.75, 5]: nothing there
		if err != nil {
			return err
		}
		if res.Matched {
			return fmt.Errorf("matched %g, want NO MATCH", res.MatchTS)
		}
		// A later request still works.
		res, err = p.Import("d", 8, dst)
		if err != nil {
			return err
		}
		if !res.Matched || res.MatchTS != 8 {
			return fmt.Errorf("second request: %+v", res)
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBuddyHelpReducesCopies runs the paper's slow-exporter scenario twice —
// buddy-help on and off — and asserts (a) identical transferred data and
// (b) strictly fewer memcpys on the slow process with buddy-help.
func TestBuddyHelpReducesCopies(t *testing.T) {
	const (
		nExports = 60
		period   = 10 // one request every 'period' exporter steps
		size     = 8
	)
	run := func(buddy bool) (copies, skips int) {
		f := buildCoupling(t, Options{BuddyHelp: buddy}, 2, 2, size, "REGL 2.5")
		exp, imp := f.MustProgram("E"), f.MustProgram("I")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runProcs(t, exp, func(p *Process) error {
				block, _ := p.Block("d")
				for k := 1; k <= nExports; k++ {
					if p.Rank() == 1 {
						// The slow process p_s: extra computational work.
						testutil.Sleep(2 * time.Millisecond)
					}
					if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
						return err
					}
				}
				return nil
			})
		}()
		runProcs(t, imp, func(p *Process) error {
			block, _ := p.Block("d")
			dst := make([]float64, block.Area())
			for x := period; x <= nExports; x += period {
				res, err := p.Import("d", float64(x), dst)
				if err != nil {
					return err
				}
				if !res.Matched || res.MatchTS != float64(x) {
					return fmt.Errorf("request @%d resolved %+v", x, res)
				}
			}
			return nil
		})
		wg.Wait()
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		stats, err := exp.Process(1).ExportStats("d")
		if err != nil {
			t.Fatal(err)
		}
		s := stats["I.d"]
		return s.Copies, s.Skips
	}

	copiesWith, skipsWith := run(true)
	copiesWithout, skipsWithout := run(false)
	t.Logf("slow process: with buddy-help copies=%d skips=%d; without copies=%d skips=%d",
		copiesWith, skipsWith, copiesWithout, skipsWithout)
	if copiesWith >= copiesWithout {
		t.Errorf("buddy-help did not reduce copies: %d >= %d", copiesWith, copiesWithout)
	}
	if skipsWith <= skipsWithout {
		t.Errorf("buddy-help did not increase skips: %d <= %d", skipsWith, skipsWithout)
	}
}

// TestImporterCollectiveViolation: importer processes requesting different
// timestamps for the same collective call must trip Property-1 validation.
func TestImporterCollectiveViolation(t *testing.T) {
	f := buildCoupling(t, Options{BuddyHelp: true, Timeout: 5 * time.Second}, 1, 2, 4, "REGL 1")
	imp := f.MustProgram("I")

	var wg sync.WaitGroup
	results := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := imp.Process(r)
			block, _ := p.Block("d")
			dst := make([]float64, block.Area())
			_, results[r] = p.Import("d", float64(10+r), dst) // ranks disagree
		}(r)
	}
	wg.Wait()
	if results[0] == nil && results[1] == nil {
		t.Fatal("disagreeing collective imports both succeeded")
	}
	err := f.Err()
	if err == nil || !strings.Contains(err.Error(), "Property 1") {
		t.Errorf("framework error = %v, want Property 1 violation", err)
	}
}

// TestUnconnectedExportIsFastPath: exporting a defined region with no
// connection does nothing (and allocates no buffers).
func TestUnconnectedExportIsFastPath(t *testing.T) {
	cfg, err := config.ParseString(`
E local /bin/e 1
I local /bin/i 1
#
E.d I.d REGL 1
`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l4, _ := decomp.NewRowBlock(4, 4, 1)
	e := f.MustProgram("E")
	if err := e.DefineRegion("d", l4); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineRegion("lonely", l4); err != nil {
		t.Fatal(err)
	}
	if err := f.MustProgram("I").DefineRegion("d", l4); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	p := e.Process(0)
	for k := 1; k <= 100; k++ {
		if err := p.Export("lonely", float64(k), make([]float64, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ExportStats("lonely"); err == nil {
		t.Error("unconnected region has export state")
	}
	// Wrong data size still validated on the fast path.
	if err := p.Export("lonely", 101, make([]float64, 3)); err == nil {
		t.Error("wrong-size export accepted on fast path")
	}
}

// TestImportUnconnectedRegionFails: importing a region no connection feeds
// is an immediate error (the paper's early-detection property).
func TestImportUnconnectedRegionFails(t *testing.T) {
	f := buildCoupling(t, Options{Timeout: 5 * time.Second}, 1, 1, 4, "REGL 1")
	p := f.MustProgram("I").Process(0)
	if _, err := p.Import("ghost", 1, make([]float64, 16)); err == nil {
		t.Error("import of unconnected region succeeded")
	}
}

// TestStartValidatesRegions: a connection naming an undefined region or
// mismatched shapes fails at Start.
func TestStartValidatesRegions(t *testing.T) {
	mk := func() (*Framework, *Program, *Program) {
		cfg, err := config.ParseString("E local /bin/e 1\nI local /bin/i 1\n#\nE.d I.d REGL 1\n")
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f, f.MustProgram("E"), f.MustProgram("I")
	}

	f, _, i := mk()
	l, _ := decomp.NewRowBlock(4, 4, 1)
	i.DefineRegion("d", l)
	if err := f.Start(); err == nil || !strings.Contains(err.Error(), "never defined region") {
		t.Errorf("undefined exporter region: %v", err)
	}

	f2, e2, i2 := mk()
	l4, _ := decomp.NewRowBlock(4, 4, 1)
	l5, _ := decomp.NewRowBlock(5, 4, 1)
	e2.DefineRegion("d", l4)
	i2.DefineRegion("d", l5)
	if err := f2.Start(); err == nil || !strings.Contains(err.Error(), "couples a") {
		t.Errorf("shape mismatch: %v", err)
	}
}

func TestDefineRegionValidation(t *testing.T) {
	cfg, _ := config.ParseString("E local /bin/e 2\nI local /bin/i 1\n#\nE.d I.d REGL 1\n")
	f, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := f.MustProgram("E")
	l1, _ := decomp.NewRowBlock(4, 4, 1)
	if err := e.DefineRegion("d", l1); err == nil {
		t.Error("layout with wrong proc count accepted")
	}
	l2, _ := decomp.NewRowBlock(4, 4, 2)
	if err := e.DefineRegion("", l2); err == nil {
		t.Error("empty region name accepted")
	}
	if err := e.DefineRegion("d", l2); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineRegion("d", l2); err == nil {
		t.Error("duplicate region accepted")
	}
	if _, err := f.Program("nope"); err == nil {
		t.Error("unknown program lookup succeeded")
	}
}

// TestFanOutExport: one exported region feeding two importer programs with
// different policies; both receive correct (possibly different) matches.
func TestFanOutExport(t *testing.T) {
	cfg, err := config.ParseString(`
E local /bin/e 2
A local /bin/a 2
B local /bin/b 1
#
E.d A.d REGL 2.5
E.d B.d REGL 0.25
`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{BuddyHelp: true, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const size = 6
	le, _ := decomp.NewRowBlock(size, size, 2)
	la, _ := decomp.NewColBlock(size, size, 2)
	lb, _ := decomp.NewRowBlock(size, size, 1)
	f.MustProgram("E").DefineRegion("d", le)
	f.MustProgram("A").DefineRegion("d", la)
	f.MustProgram("B").DefineRegion("d", lb)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, f.MustProgram("E"), func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= 30; k++ {
				ts := float64(k) - 0.5 // exports at 0.5, 1.5, ...
				if err := p.Export("d", ts, fillBlock(block, ts)); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, f.MustProgram("A"), func(p *Process) error {
			block, _ := p.Block("d")
			dst := make([]float64, block.Area())
			res, err := p.Import("d", 10, dst)
			if err != nil {
				return err
			}
			// REGL 2.5 around 10: match is 9.5.
			if !res.Matched || res.MatchTS != 9.5 {
				return fmt.Errorf("A matched %+v", res)
			}
			g := decomp.Grid{Block: block, Data: dst}
			if g.At(block.R0, block.C0) != cell(9.5, block.R0, block.C0) {
				return fmt.Errorf("A data wrong")
			}
			return nil
		})
	}()

	runProcs(t, f.MustProgram("B"), func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		res, err := p.Import("d", 12, dst)
		if err != nil {
			return err
		}
		// REGL 0.25 around 12: nothing in [11.75, 12] -> NO MATCH.
		if res.Matched {
			return fmt.Errorf("B matched %+v", res)
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// runBuddyHelpCoupling runs a 2 -> 1 coupling with buddy-help and a tracing
// observer in which exporter rank 1 is slow: it stalls at its fourth export
// until its own figure events show the buddy-help message the fast rank's
// answer produced for it. It returns the exporter program and the observer.
func runBuddyHelpCoupling(t *testing.T) (*Program, *obsv.Observer) {
	t.Helper()
	obs := obsv.New(obsv.Config{Tracing: true})
	f := buildCoupling(t, Options{BuddyHelp: true, Obsv: obs}, 2, 1, 4, "REGL 2.5")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, _ := p.Block("d")
			ring := obs.Tracer.Ring("E", p.Rank())
			for k := 1; k <= 12; k++ {
				if p.Rank() == 1 && k == 4 {
					deadline := testutil.Now().Add(10 * time.Second)
					for countSpans(ring, "fig.buddy") == 0 {
						if testutil.Now().After(deadline) {
							return fmt.Errorf("no buddy-help within deadline")
						}
						testutil.Sleep(time.Millisecond)
					}
				}
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		res, err := p.Import("d", 10, dst)
		if err != nil {
			return err
		}
		if !res.Matched || res.MatchTS != 10 {
			return fmt.Errorf("matched %+v", res)
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return exp, obs
}

// countSpans counts the spans called name on a process's lane.
func countSpans(ring *obsv.Ring, name string) int {
	n := 0
	for _, sp := range ring.Spans() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestTraceCapturesBuddyHelp: with a tracing observer and a slow exporter
// rank, the slow process's lane carries the paper-figure lines of a
// buddy-help message and skipped memcpys.
func TestTraceCapturesBuddyHelp(t *testing.T) {
	_, obs := runBuddyHelpCoupling(t)
	text := strings.Join(buffer.FigureLines(obs.Tracer.Ring("E", 1)), "\n")
	if !strings.Contains(text, "receive buddy-help {D@10, MATCH, D@10}.") {
		t.Errorf("slow process trace lacks buddy-help:\n%s", text)
	}
	if !strings.Contains(text, "skip memcpy") {
		t.Errorf("slow process trace lacks skipped memcpys:\n%s", text)
	}
}

// TestFigureSpansMatchStats: the figure events a tracing run records and the
// buffer statistics count the same decisions — on every exporter process,
// one fig.copy span per copy, one fig.skip per skip, one fig.send per send.
func TestFigureSpansMatchStats(t *testing.T) {
	exp, obs := runBuddyHelpCoupling(t)
	for r := 0; r < exp.Procs(); r++ {
		stats, err := exp.Process(r).ExportStats("d")
		if err != nil {
			t.Fatal(err)
		}
		st := stats["I.d"]
		ring := obs.Tracer.Ring("E", r)
		for _, c := range []struct {
			span string
			want int
		}{{"fig.copy", st.Copies}, {"fig.skip", st.Skips}, {"fig.send", st.Sends}} {
			if got := countSpans(ring, c.span); got != c.want {
				t.Errorf("rank %d: %d %s spans, stats count %d", r, got, c.span, c.want)
			}
		}
		if st.Copies+st.Skips != 12 {
			t.Errorf("rank %d: %d copies + %d skips, want 12 exports", r, st.Copies, st.Skips)
		}
	}
}

// TestCouplingOverTCP runs the end-to-end protocol over real sockets.
func TestCouplingOverTCP(t *testing.T) {
	router, err := transport.StartTCPRouter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	f := buildCoupling(t, Options{
		BuddyHelp: true,
		Network:   transport.NewTCPNetwork(router.ListenAddr()),
		Timeout:   30 * time.Second,
	}, 2, 2, 8, "REGL 2.5")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= 15; k++ {
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		res, err := p.Import("d", 10, dst)
		if err != nil {
			return err
		}
		if !res.Matched || res.MatchTS != 10 {
			return fmt.Errorf("matched %+v", res)
		}
		g := decomp.Grid{Block: block, Data: dst}
		if g.At(block.R0, block.C0) != cell(10, block.R0, block.C0) {
			return fmt.Errorf("data wrong over TCP")
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedCouplingCycles exercises many request cycles to shake out
// request-id bookkeeping drift.
func TestRepeatedCouplingCycles(t *testing.T) {
	f := buildCoupling(t, Options{BuddyHelp: true}, 2, 2, 6, "REGL 0.5")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")
	const cycles = 20

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= cycles*3+5; k++ {
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		for c := 1; c <= cycles; c++ {
			x := float64(c * 3)
			res, err := p.Import("d", x, dst)
			if err != nil {
				return fmt.Errorf("cycle %d: %w", c, err)
			}
			if !res.Matched || res.MatchTS != x {
				return fmt.Errorf("cycle %d resolved %+v", c, res)
			}
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	// Exactly `cycles` versions were transferred by each exporter process.
	for r := 0; r < exp.Procs(); r++ {
		stats, err := exp.Process(r).ExportStats("d")
		if err != nil {
			t.Fatal(err)
		}
		if got := stats["I.d"].Sends; got != cycles {
			t.Errorf("rank %d sends = %d, want %d", r, got, cycles)
		}
	}
}

// TestIntraProgramCollectives: processes of a framework program can use
// their Comm for halo-style exchanges alongside the coupling protocol.
func TestIntraProgramCollectives(t *testing.T) {
	f := buildCoupling(t, Options{}, 4, 1, 8, "REGL 1")
	exp := f.MustProgram("E")
	runProcs(t, exp, func(p *Process) error {
		sum, err := p.Comm().AllReduceScalar(float64(p.Rank()+1), collective.Sum)
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("allreduce = %v", sum)
		}
		return nil
	})
	// The per-op/per-algo instruments observed the operation and surface it
	// in the framework's /statusz section.
	var b strings.Builder
	f.Obsv().WriteStatus(&b)
	if !strings.Contains(b.String(), "collectives:") || !strings.Contains(b.String(), "allreduce.") {
		t.Errorf("statusz missing collectives section:\n%s", b.String())
	}
}

// TestExportTotals aggregates across processes and connections.
func TestExportTotals(t *testing.T) {
	f := buildCoupling(t, Options{BuddyHelp: true}, 2, 1, 4, "REGL 1")
	exp, imp := f.MustProgram("E"), f.MustProgram("I")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, _ := p.Block("d")
			for k := 1; k <= 8; k++ {
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, _ := p.Block("d")
		dst := make([]float64, block.Area())
		_, err := p.Import("d", 5, dst)
		return err
	})
	wg.Wait()
	total, err := exp.ExportTotals("d")
	if err != nil {
		t.Fatal(err)
	}
	if total.Exports != 16 { // 8 exports x 2 processes
		t.Errorf("total exports %d, want 16", total.Exports)
	}
	if total.Sends != 2 { // one match, one piece per process
		t.Errorf("total sends %d, want 2", total.Sends)
	}
	if total.Copies+total.Skips != total.Exports {
		t.Errorf("copies %d + skips %d != exports %d", total.Copies, total.Skips, total.Exports)
	}
	if _, err := exp.ExportTotals("nope"); err == nil {
		t.Error("unknown region accepted")
	}
}

// TestProtocolCounters verifies the control-plane message accounting, read
// by name from the registry, including that buddy-help messages appear only
// when the optimization is on.
func TestProtocolCounters(t *testing.T) {
	run := func(buddy bool) map[string]float64 {
		f := buildCoupling(t, Options{BuddyHelp: buddy}, 2, 2, 8, "REGL 2.5")
		e, i := f.MustProgram("E"), f.MustProgram("I")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runProcs(t, e, func(p *Process) error {
				block, _ := p.Block("d")
				for k := 1; k <= 25; k++ {
					if p.Rank() == 1 {
						testutil.Sleep(time.Millisecond) // keep one process slow
					}
					if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
						return err
					}
				}
				return nil
			})
		}()
		runProcs(t, i, func(p *Process) error {
			block, _ := p.Block("d")
			dst := make([]float64, block.Area())
			for _, x := range []float64{10, 20} {
				if _, err := p.Import("d", x, dst); err != nil {
					return err
				}
			}
			return nil
		})
		wg.Wait()
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		return f.Obsv().Registry.Snapshot()
	}
	on, off := run(true), run(false)
	count := func(snap map[string]float64, name, program string) float64 {
		return obsv.Sum(snap, name, obsv.L("program", program))
	}

	// 2 requests, 2 exporter procs: 4 forwards, >= 4 responses, 2 answers.
	if n := count(on, "core.requests.forwarded", "E"); n != 4 {
		t.Errorf("forwards %v, want 4", n)
	}
	if n := count(on, "core.responses", "E"); n < 4 {
		t.Errorf("responses %v, want >= 4", n)
	}
	if n := count(on, "core.answers.sent", "E"); n != 2 {
		t.Errorf("answers sent %v, want 2", n)
	}
	// Importer: 2 procs x 2 calls; answers fanned to both procs.
	if n := count(on, "core.import.calls", "I"); n != 4 {
		t.Errorf("import calls %v, want 4", n)
	}
	if n := count(on, "core.answers.delivered", "I"); n != 4 {
		t.Errorf("answers delivered %v, want 4", n)
	}
	// Data: each exporter proc sends one piece per matched request per
	// intersecting importer proc.
	if count(on, "core.data.sends", "E") == 0 {
		t.Error("no data messages counted")
	}
	if n := count(off, "core.buddy.messages", "E"); n != 0 {
		t.Errorf("buddy messages %v with optimization off", n)
	}
}

// TestPolicyVariants drives REGU and REG connections through the full stack.
func TestPolicyVariants(t *testing.T) {
	cases := []struct {
		policy    string
		reqTS     float64
		wantMatch float64
	}{
		// Exports at 1..20. REGU @9.5 tol 2: region [9.5, 11.5] -> first
		// export at or above 9.5 is 10.
		{"REGU 2", 9.5, 10},
		// REG @9.4 tol 2: region [7.4, 11.4] -> closest to 9.4 is 9.
		{"REG 2", 9.4, 9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.policy, func(t *testing.T) {
			f := buildCoupling(t, Options{BuddyHelp: true}, 2, 2, 8, tc.policy)
			exp, imp := f.MustProgram("E"), f.MustProgram("I")
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				runProcs(t, exp, func(p *Process) error {
					block, _ := p.Block("d")
					for k := 1; k <= 20; k++ {
						if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
							return err
						}
					}
					return nil
				})
			}()
			runProcs(t, imp, func(p *Process) error {
				block, _ := p.Block("d")
				dst := make([]float64, block.Area())
				res, err := p.Import("d", tc.reqTS, dst)
				if err != nil {
					return err
				}
				if !res.Matched || res.MatchTS != tc.wantMatch {
					return fmt.Errorf("resolved %+v, want MATCH %g", res, tc.wantMatch)
				}
				g := decomp.Grid{Block: block, Data: dst}
				if g.At(block.R0, block.C0) != cell(tc.wantMatch, block.R0, block.C0) {
					return fmt.Errorf("data of wrong version")
				}
				return nil
			})
			wg.Wait()
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
