package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/testutil"
	"repro/internal/transport"
)

const distributedCfg = `
E local b 2
I local b 2
#
E.d I.d REGL 2.5
`

// joinProgram runs one side of a distributed coupling: Join + DefineRegion +
// Start + the app loop.
func joinProgram(t *testing.T, router string, name string, layout decomp.Layout,
	app func(prog *Program) error) error {
	cfg, err := config.ParseString(distributedCfg)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(router)
	defer net.Close()
	fw, err := Join(cfg, name, Options{
		Network:   net,
		BuddyHelp: true,
		Timeout:   30 * time.Second,
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	prog, err := fw.Local()
	if err != nil {
		return err
	}
	if err := prog.DefineRegion("d", layout); err != nil {
		return err
	}
	if err := fw.Start(); err != nil {
		return err
	}
	if err := app(prog); err != nil {
		return err
	}
	return fw.Err()
}

// TestDistributedCoupling runs exporter and importer as two independent
// frameworks joined over a TCP router — the paper's deployment model of one
// binary per component. The importer starts late to exercise the handshake
// retry.
func TestDistributedCoupling(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	router, err := transport.StartTCPRouter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const size = 8
	le, _ := decomp.NewRowBlock(size, size, 2)
	li, _ := decomp.NewColBlock(size, size, 2)

	errs := make(chan error, 2)
	imported := make(chan struct{}) // closed when program I's imports returned
	go func() {
		errs <- joinProgram(t, router.ListenAddr(), "E", le, func(prog *Program) error {
			var wg sync.WaitGroup
			perr := make([]error, prog.Procs())
			for r := 0; r < prog.Procs(); r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					p := prog.Process(r)
					block, _ := p.Block("d")
					for k := 1; k <= 15; k++ {
						if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
							perr[r] = err
							return
						}
					}
				}(r)
			}
			wg.Wait()
			for _, e := range perr {
				if e != nil {
					return e
				}
			}
			// Stay alive until the importer has its data: closing this
			// framework tears down the exporter's rep and processes, so a
			// component must not exit before its peers are done with it
			// (shutdown coordination is application-level, as in the paper's
			// independently developed programs). A match decided here is not
			// yet an answer sent — the rep may still be aggregating.
			select {
			case <-imported:
			case <-time.After(30 * time.Second):
				return fmt.Errorf("importer never collected the match")
			}
			for r := 0; r < prog.Procs(); r++ {
				stats, err := prog.Process(r).ExportStats("d")
				if err != nil {
					return err
				}
				if stats["I.d"].Sends < 1 {
					return fmt.Errorf("E:%d sent nothing to I.d", r)
				}
			}
			return nil
		})
	}()
	go func() {
		testutil.Sleep(150 * time.Millisecond) // join late: the handshake must retry
		errs <- joinProgram(t, router.ListenAddr(), "I", li, func(prog *Program) error {
			var wg sync.WaitGroup
			perr := make([]error, prog.Procs())
			for r := 0; r < prog.Procs(); r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					p := prog.Process(r)
					block, _ := p.Block("d")
					dst := make([]float64, block.Area())
					res, err := p.Import("d", 10, dst)
					if err != nil {
						perr[r] = err
						return
					}
					if !res.Matched || res.MatchTS != 10 {
						perr[r] = fmt.Errorf("resolved %+v", res)
						return
					}
					g := decomp.Grid{Block: block, Data: dst}
					if g.At(block.R0, block.C0) != cell(10, block.R0, block.C0) {
						perr[r] = fmt.Errorf("data wrong over distributed coupling")
					}
				}(r)
			}
			wg.Wait()
			close(imported)
			for _, e := range perr {
				if e != nil {
					return e
				}
			}
			return nil
		})
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("distributed coupling timed out")
		}
	}
}

// TestJoinValidation: Join needs an explicit network and a known program.
func TestJoinValidation(t *testing.T) {
	cfg, _ := config.ParseString(distributedCfg)
	if _, err := Join(cfg, "E", Options{}); err == nil {
		t.Error("Join without a network accepted")
	}
	net := transport.NewMemNetwork()
	defer net.Close()
	if _, err := Join(cfg, "nope", Options{Network: net}); err == nil {
		t.Error("unknown program accepted")
	}
	f, err := Join(cfg, "E", Options{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Local(); err != nil {
		t.Errorf("Local: %v", err)
	}
	if _, err := f.Program("I"); err == nil {
		t.Error("peer program instantiated in distributed mode")
	}
}

// TestLocalOnFullFramework: Local is only meaningful after Join.
func TestLocalOnFullFramework(t *testing.T) {
	f := buildCoupling(t, Options{Timeout: 5 * time.Second}, 1, 1, 4, "REGL 1")
	if _, err := f.Local(); err == nil {
		t.Error("Local succeeded on a host-all framework")
	}
}
