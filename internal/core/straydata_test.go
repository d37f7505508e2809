package core

import (
	"encoding/binary"
	"math"
	"repro/internal/testutil"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// TestStrayDataFrameDropped: a KindData frame for a connection key the
// receiver does not import — a straggler delayed past its peer's teardown,
// or a duplicate from a flaky transport — must be dropped and counted
// (core.data.dropped), not fail the program. Regression: handleData
// used to call prog.fail on the unknown key, so one late frame tore down
// the whole coupled run. The run rides a FaultNetwork with delivery delays,
// the condition that produces such stragglers in the wild.
func TestStrayDataFrameDropped(t *testing.T) {
	cfg, err := config.ParseString("E local b 1\nI local b 1\n#\nE.d I.d REGL 1\n")
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaultNetwork(transport.NewMemNetwork(), transport.FaultConfig{
		Seed:      42,
		DelayProb: 0.5,
		MaxDelay:  2 * time.Millisecond,
	})
	f, err := New(cfg, Options{Network: net, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, _ := decomp.NewRowBlock(4, 4, 1)
	f.MustProgram("E").DefineRegion("d", l)
	f.MustProgram("I").DefineRegion("d", l)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	// An outside endpoint injects data frames whose connection key the
	// importer never configured.
	ghost, err := net.Register(transport.Proc("X", 0))
	if err != nil {
		t.Fatal(err)
	}
	const strays = 3
	for i := 0; i < strays; i++ {
		err := ghost.Send(transport.Message{
			Kind:    transport.KindData,
			Dst:     transport.Proc("I", 0),
			Tag:     "E.ghost->I.ghost",
			Payload: []byte("late straggler"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// The coupled exchange must still complete normally around the strays.
	exp := f.MustProgram("E").Process(0)
	imp := f.MustProgram("I").Process(0)
	done := make(chan error, 1)
	go func() {
		for k := 1; k <= 3; k++ {
			if err := exp.Export("d", float64(k), fillBlock(decomp.NewRect(0, 0, 4, 4), float64(k))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	dst := make([]float64, 16)
	res, err := imp.Import("d", 2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.MatchTS != 2 {
		t.Fatalf("import resolved %+v", res)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The strays are delayed by the fault layer; poll for the counter.
	dropped := f.Obsv().Registry.Counter("core.data.dropped", obsv.L("program", "I"))
	deadline := testutil.Now().Add(5 * time.Second)
	for dropped.Load() < strays {
		if testutil.Now().After(deadline) {
			t.Fatalf("core.data.dropped = %d, want %d", dropped.Load(), strays)
		}
		testutil.Sleep(time.Millisecond)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("stray data frame failed the program: %v", err)
	}
}

// TestStrayDataForgedPieceFailsImport: a data frame on a real connection, for the
// right request and timestamp, whose sub-rectangle lies inside the
// importer's block but is no piece of its redistribution plan — stray or
// forged — must fail the Import, not stand in for the missing planned piece
// and return Matched with a hole in dst. The run is on a bare MemNetwork, so
// the only source of such a frame is the outside endpoint below.
func TestStrayDataForgedPieceFailsImport(t *testing.T) {
	cfg, err := config.ParseString("E local b 1\nI local b 1\n#\nE.d I.d REGL 1\n")
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	f, err := New(cfg, Options{Network: net, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, _ := decomp.NewRowBlock(4, 4, 1)
	f.MustProgram("E").DefineRegion("d", l)
	f.MustProgram("I").DefineRegion("d", l)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	// Request 0 at timestamp 2 will match export 2; the forged piece claims
	// the single cell [0:1,0:1] of it, while the plan sends the whole block.
	forged := make([]byte, 0, 56)
	for _, w := range []uint64{0, math.Float64bits(2), 0, 0, 1, 1, math.Float64bits(-1)} {
		forged = binary.LittleEndian.AppendUint64(forged, w)
	}
	ghost, err := net.Register(transport.Proc("X", 0))
	if err != nil {
		t.Fatal(err)
	}
	key := connKey("E.d", "I.d")
	if err := ghost.Send(transport.Message{Kind: transport.KindData, Dst: transport.Proc("I", 0), Tag: key, Payload: forged}); err != nil {
		t.Fatal(err)
	}
	st := f.MustProgram("I").Process(0).impByKey[key]
	deadline := testutil.Now().Add(5 * time.Second)
	for {
		st.pmu.Lock()
		filed := len(st.pieces[0])
		st.pmu.Unlock()
		if filed == 1 {
			break
		}
		if testutil.Now().After(deadline) {
			t.Fatal("the forged frame was never filed")
		}
		testutil.Sleep(time.Millisecond)
	}

	exp := f.MustProgram("E").Process(0)
	go func() {
		for k := 1; k <= 3; k++ {
			if exp.Export("d", float64(k), fillBlock(decomp.NewRect(0, 0, 4, 4), float64(k))) != nil {
				return
			}
		}
	}()
	dst := make([]float64, 16)
	res, err := f.MustProgram("I").Process(0).Import("d", 2, dst)
	if err == nil || !strings.Contains(err.Error(), "no piece of this rank's plan") {
		t.Fatalf("Import with a forged piece = %+v, %v; want it refused (dst %v)", res, err, dst)
	}
}
