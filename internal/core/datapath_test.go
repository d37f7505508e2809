package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestDataPayloadBytes pins the KindData wire layout: appendData writes
// exactly the 48-byte little-endian header (reqID, matchTS, r0, c0, r1, c1)
// followed by the sub-rectangle's values packed row-major and encoded
// little-endian — the bytes every earlier version put on the wire, so the
// DST digests, which hash what crosses the transport, cannot move.
func TestDataPayloadBytes(t *testing.T) {
	g := decomp.NewGrid(decomp.NewRect(4, 2, 10, 9))
	g.Fill(func(r, c int) float64 { return float64(r)*1e3 + float64(c) + 0.125 })
	sub := decomp.NewRect(5, 3, 9, 7)
	want := binary.LittleEndian.AppendUint64(nil, uint64(int64(17)))
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(19.6))
	for _, v := range []int64{5, 3, 9, 7} {
		want = binary.LittleEndian.AppendUint64(want, uint64(v))
	}
	vals := make([]float64, sub.Area())
	g.PackInto(sub, vals)
	want = wire.AppendFloat64s(want, vals)

	got, err := appendData(nil, 17, 19.6, g, sub)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendData = %d bytes (%v), want the %d-byte header || values layout", len(got), err, len(want))
	}
	reqID, matchTS, psub, body, err := parseData(got)
	if err != nil || reqID != 17 || matchTS != 19.6 || psub != sub || !bytes.Equal(body, want[dataHeaderSize:]) {
		t.Fatalf("parseData = %d %v %v %d bytes, %v", reqID, matchTS, psub, len(body), err)
	}
}

// TestDataPathSteadyStateBytes replays a closed 2 -> 2 RowBlock exchange of
// 1 MiB blocks, one Import per Export, on a bare MemNetwork and on bare
// loopback TCP, and asserts that after warm-up a step allocates no more than
// its control messages: every data frame — drawn by the sender (and by TCP's
// receive loop), handed back by TCP after its write and by Import after the
// decode — comes out of the network's frame pool, which misses nothing.
func TestDataPathSteadyStateBytes(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		net  func(t *testing.T) transport.Network
	}{
		{"mem", func(*testing.T) transport.Network { return transport.NewMemNetwork() }},
		{"tcp", func(t *testing.T) transport.Network {
			r, err := transport.StartTCPRouter("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return transport.NewTCPNetwork(r.ListenAddr())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { dataPathBytes(t, tc.net(t)) })
	}
}

func dataPathBytes(t *testing.T, net transport.Network) {
	const (
		n       = 512 // a 256 x 512 block, 1 MiB, per rank
		procs   = 2
		warmup  = 24
		steps   = 32
		windows = 6
		// budget is a late third version buffer — 1 MiB once, when a slow
		// transfer holds two, 32 KiB a step spread over the window — plus
		// the step's binary control traffic: about ten import calls,
		// requests, forwards, responses and answers, 2-4 KB in all. A window
		// that draws two late buffers fails and the next one is measured.
		// One copy of a block per transfer would add 2 MiB.
		budget = 48 << 10
	)
	cfg, err := config.ParseString(fmt.Sprintf("E local b %d\nI local b %d\n#\nE.d I.d REGL 0.5\n", procs, procs))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{Network: net, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layout, err := decomp.NewRowBlock(n, n, procs)
	if err != nil {
		t.Fatal(err)
	}
	exp, imp := f.MustProgram("E"), f.MustProgram("I")
	if err := exp.DefineRegion("d", layout); err != nil {
		t.Fatal(err)
	}
	if err := imp.DefineRegion("d", layout); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	frames := exp.Process(0).d.Frames()
	if frames == nil || imp.Process(1).d.Frames() != frames {
		t.Fatal("the processes do not share the network's frame pool")
	}

	// One worker per rank, triggered per step, so the measured loop spawns
	// nothing; importer rank r receives exactly exporter rank r's block.
	type rank struct {
		block decomp.Rect
		data  []float64
	}
	var ranks [procs]rank
	for r := range ranks {
		ranks[r] = rank{block: layout.Block(r), data: make([]float64, layout.Block(r).Area())}
	}
	trigger := make([]chan float64, 2*procs)
	done := make(chan error, 2*procs)
	var wg sync.WaitGroup
	for w := range trigger {
		trigger[w] = make(chan float64)
		r := w % procs
		wg.Add(1)
		go func(w, r int) {
			defer wg.Done()
			dst := make([]float64, ranks[r].block.Area())
			for ts := range trigger[w] {
				if w < procs {
					g := decomp.Grid{Block: ranks[r].block, Data: ranks[r].data}
					g.Fill(func(row, col int) float64 { return cell(ts, row, col) })
					done <- exp.Process(r).Export("d", ts, g.Data)
					continue
				}
				res, err := imp.Process(r).Import("d", ts, dst)
				if err == nil && (!res.Matched || res.MatchTS != ts) {
					err = fmt.Errorf("rank %d: import %g resolved %+v", r, ts, res)
				}
				g := decomp.Grid{Block: ranks[r].block, Data: dst}
				for i, row := 0, g.Block.R0; err == nil && row < g.Block.R1; row += 97 {
					if got := g.At(row, g.Block.C0+i%n); got != cell(ts, row, g.Block.C0+i%n) {
						err = fmt.Errorf("rank %d: import %g: (%d,%d) = %v", r, ts, row, i%n, got)
					}
					i += 131
				}
				done <- err
			}
		}(w, r)
	}
	defer func() {
		for _, tr := range trigger {
			close(tr)
		}
		wg.Wait()
	}()
	step := 0.0
	round := func() {
		step++
		for _, tr := range trigger {
			tr <- step
		}
		for range trigger {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < warmup; i++ {
		round()
	}
	// The pool grows to the deepest overlap the scheduler produces (a sender
	// descheduled between its write and its Put keeps a frame out while the
	// next step draws), and so does the exporter's version pool; that growth
	// stops, while an allocation per step shows in every window. So the
	// gate is the first clean window of up to windows.
	runtime.GC()
	for w := 1; ; w++ {
		var before, after runtime.MemStats
		pool := frames.Stats()
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		now := frames.Stats()
		perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
		misses := now.Misses - pool.Misses
		t.Logf("window %d: %.0f bytes/step allocated to move %d MiB; frame pool %d hits, %d misses over %d steps",
			w, perStep, procs, now.Hits-pool.Hits, misses, steps)
		if perStep <= budget && misses == 0 {
			return
		}
		if w == windows {
			t.Fatalf("no window of %d steps allocated at most the %d-byte control budget per step with 0 frame-pool misses",
				steps, budget)
		}
	}
}

// TestControlBeforeLayoutWaitsForIt: a restored exporter hears its
// importer's replayed requests before the layout reply, so a request it
// answers straight from its buffer arrives before the connection's
// redistribution plan. The answer's data must still reach the importer —
// once the layout lands — and the sender must never read the plan while the
// control goroutine installs it. The exporter process runs alone here (no
// reps, no handshake): the test plays its rep, and the importer's endpoint
// only collects.
func TestControlBeforeLayoutWaitsForIt(t *testing.T) {
	cfg, err := config.ParseString("E local /bin/e 1\nI local /bin/i 1\n#\nE.d I.d REGL 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lay, err := decomp.NewRowBlock(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp, imp := f.MustProgram("E"), f.MustProgram("I")
	if err := exp.DefineRegion("d", lay); err != nil {
		t.Fatal(err)
	}
	if err := imp.DefineRegion("d", lay); err != nil {
		t.Fatal(err)
	}
	proc := exp.Process(0)
	proc.start()
	block, _ := proc.Block("d")
	for _, ts := range []float64{1, 2, 3} {
		if err := proc.Export("d", ts, fillBlock(block, ts)); err != nil {
			t.Fatal(err)
		}
	}
	key := connKey("E.d", "I.d")
	rep := exp.rep.d
	send := func(tag string, fields func(*wire.Ctl)) {
		t.Helper()
		err := rep.Send(transport.Message{
			Kind: transport.KindControl, Dst: proc.addr(), Tag: tag, Payload: wire.Encode(fields),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// D@2 matches the buffered D@2 at once: a job with sends.
	req := requestMsg{Conn: key, ReqID: 0, ReqTS: 2}
	send("forward", req.fields)
	spec, err := decomp.SpecOf(lay)
	if err != nil {
		t.Fatal(err)
	}
	// The pause changes nothing for a process that holds the forward back; it
	// gives one that applies it at once the time to run the job's send
	// before the plan exists, so the old order fails every run, not one in
	// five.
	time.Sleep(20 * time.Millisecond)
	lm := layoutMsg{Conn: key, Remote: spec}
	send("layout", lm.fields)

	m, err := rep.RecvTimeout(transport.KindResponse, 5*time.Second)
	if err != nil {
		t.Fatalf("no response to the forwarded request: %v", err)
	}
	var resp responseMsg
	if err := wire.Decode(m.Payload, resp.fields); err != nil || resp.MatchTS != 2 {
		t.Fatalf("response %+v, %v; want a match of D@2", resp, err)
	}
	data, err := imp.Process(0).d.RecvTimeout(transport.KindData, 5*time.Second)
	if err != nil {
		t.Fatalf("matched data never sent: %v", err)
	}
	if _, matchTS, sub, _, err := parseData(data.Payload); err != nil || matchTS != 2 || sub != block {
		t.Fatalf("data frame D@%g for %v, %v; want D@2 for %v", matchTS, sub, err, block)
	}
}
