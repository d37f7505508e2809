package main

// adapter.go is the only file of the benchmark that calls the program. A
// refactor of the program that changes one of these calls changes this file,
// in a change of its own that claims no gain; the list of calls is repeated
// in README.md.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/rep"
	"repro/internal/transport"
	"repro/internal/wire"
)

// callTimeout bounds every blocking call into the program, so a hung
// operation surfaces as a failed call well inside the run's time limit.
const callTimeout = 30 * time.Second

// region is the one coupled region of every coupled workload: program F
// exports it, program U imports it.
const region = "f"

// ---------------------------------------------------------------------------
// transport.Network decorator (traced pass only)

// tapNetwork wraps a transport.Network and reports every Send and every
// delivered Recv to the tracer. It stamps Message.Seq per directed pair (the
// base transports keep a nonzero Seq), which is how a delivery finds the
// time its Send was entered.
type tapNetwork struct {
	inner transport.Network
	tr    *tracer

	mu    sync.Mutex
	pairs map[[2]transport.Addr]*pairLog
}

// pairLog holds the Send-entry time of every message of one directed pair;
// the message stamped Seq s was entered at sent[s-1].
type pairLog struct {
	mu   sync.Mutex
	sent []int64
}

// tapped returns inner itself when tr is nil (the untraced pass).
func tapped(inner transport.Network, tr *tracer) transport.Network {
	if tr == nil {
		return inner
	}
	return &tapNetwork{inner: inner, tr: tr, pairs: make(map[[2]transport.Addr]*pairLog)}
}

func (n *tapNetwork) Register(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	return &tapEndpoint{Endpoint: ep, net: n, who: addr.String()}, nil
}

func (n *tapNetwork) Close() error { return n.inner.Close() }

// Unwrap lets the program find the base transport under the decorator.
func (n *tapNetwork) Unwrap() transport.Network { return n.inner }

func (n *tapNetwork) pair(src, dst transport.Addr) *pairLog {
	k := [2]transport.Addr{src, dst}
	n.mu.Lock()
	p := n.pairs[k]
	if p == nil {
		p = &pairLog{}
		n.pairs[k] = p
	}
	n.mu.Unlock()
	return p
}

type tapEndpoint struct {
	transport.Endpoint
	net *tapNetwork
	who string
}

// classOf sorts a message into the classes the transport metrics report.
// The exporter rep sends buddy-help as a control message tagged "buddy".
func classOf(m transport.Message) msgClass {
	switch m.Kind {
	case transport.KindData:
		return classData
	case transport.KindBuddyHelp:
		return classBuddy
	case transport.KindCollective, transport.KindPoint:
		return classCollective
	case transport.KindControl:
		if m.Tag == "buddy" {
			return classBuddy
		}
	}
	return classControl
}

func (e *tapEndpoint) Send(m transport.Message) error {
	start := nowNS()
	p := e.net.pair(e.Addr(), m.Dst)
	p.mu.Lock()
	p.sent = append(p.sent, start)
	m.Seq = uint64(len(p.sent))
	p.mu.Unlock()
	err := e.Endpoint.Send(m)
	e.net.tr.send(e.who, classOf(m), len(m.Payload), start, nowNS())
	return err
}

func (e *tapEndpoint) delivered(m transport.Message) {
	p := e.net.pair(m.Src, e.Addr())
	p.mu.Lock()
	var sent int64 = -1
	if m.Seq >= 1 && m.Seq <= uint64(len(p.sent)) {
		sent = p.sent[m.Seq-1]
	}
	p.mu.Unlock()
	if sent >= 0 {
		e.net.tr.hop(e.who, classOf(m), len(m.Payload), sent, nowNS())
	}
}

func (e *tapEndpoint) Recv() (transport.Message, error) {
	m, err := e.Endpoint.Recv()
	if err == nil {
		e.delivered(m)
	}
	return m, err
}

func (e *tapEndpoint) RecvTimeout(d time.Duration) (transport.Message, error) {
	m, err := e.Endpoint.RecvTimeout(d)
	if err == nil {
		e.delivered(m)
	}
	return m, err
}

// ---------------------------------------------------------------------------
// coupled fixture: program F exports region f to program U through core

// couplingShape is what distinguishes the coupled workloads' fixtures.
type couplingShape struct {
	grid         int     // the region is grid x grid float64 values
	fRows, fCols int     // F's process grid (Block2D); p_s is the last rank
	uProcs       int     // U's process count (RowBlock)
	tol          float64 // REGL tolerance of the connection
	tcp          bool    // TCPRouter + TCPNetwork on loopback, else MemNetwork
}

func (s couplingShape) fProcs() int { return s.fRows * s.fCols }

func (s couplingShape) layouts() (decomp.Layout, decomp.Layout, error) {
	f, err := decomp.NewBlock2D(s.grid, s.grid, s.fRows, s.fCols)
	if err != nil {
		return nil, nil, err
	}
	u, err := decomp.NewRowBlock(s.grid, s.grid, s.uProcs)
	if err != nil {
		return nil, nil, err
	}
	return f, u, nil
}

// block is a process's global sub-rectangle [r0,r1) x [c0,c1).
type block struct{ r0, c0, r1, c1 int }

func (b block) area() int { return (b.r1 - b.r0) * (b.c1 - b.c0) }

func blockOf(r decomp.Rect) block { return block{r.R0, r.C0, r.R1, r.C1} }

type coupling struct {
	fw     *core.Framework
	f, u   *core.Program
	router *transport.TCPRouter
}

// newCoupling is one cold fixture cycle: core.New, DefineRegion on both
// programs, Start; it returns once every process is ready for Export/Import.
func newCoupling(shape couplingShape, tr *tracer) (*coupling, error) {
	c := &coupling{}
	var net transport.Network
	if shape.tcp {
		router, err := transport.StartTCPRouter("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.router = router
		net = transport.NewTCPNetwork(router.ListenAddr())
	} else {
		net = transport.NewMemNetwork()
	}
	cfg := &config.Config{
		Programs: []config.Program{
			{Name: "F", Cluster: "local", Binary: "builtin", Procs: shape.fProcs()},
			{Name: "U", Cluster: "local", Binary: "builtin", Procs: shape.uProcs},
		},
		Connections: []config.Connection{{
			Export:    config.Endpoint{Program: "F", Region: region},
			Import:    config.Endpoint{Program: "U", Region: region},
			Policy:    match.REGL,
			Tolerance: shape.tol,
		}},
	}
	fw, err := core.New(cfg, core.Options{Network: tapped(net, tr), BuddyHelp: true, Timeout: callTimeout})
	if err != nil {
		net.Close()
		c.closeRouter()
		return nil, err
	}
	c.fw = fw
	fLayout, uLayout, err := shape.layouts()
	if err == nil {
		c.f, c.u = fw.MustProgram("F"), fw.MustProgram("U")
		err = c.f.DefineRegion(region, fLayout)
	}
	if err == nil {
		err = c.u.DefineRegion(region, uLayout)
	}
	if err == nil {
		err = fw.Start()
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *coupling) closeRouter() {
	if c.router != nil {
		c.router.Close()
	}
}

func (c *coupling) close() {
	c.fw.Close()
	c.closeRouter()
}

func (c *coupling) export(rank int, ts float64, data []float64) error {
	return c.f.Process(rank).Export(region, ts, data)
}

// flush drains rank's asynchronous export pipeline.
func (c *coupling) flush(rank int) error { return c.f.Process(rank).Flush(region) }

func (c *coupling) importInto(rank int, ts float64, dst []float64) (matched bool, matchTS float64, err error) {
	res, err := c.u.Process(rank).Import(region, ts, dst)
	return res.Matched, res.MatchTS, err
}

func (c *coupling) exportBlock(rank int) (block, error) {
	r, err := c.f.Process(rank).Block(region)
	return blockOf(r), err
}

func (c *coupling) importBlock(rank int) (block, error) {
	r, err := c.u.Process(rank).Block(region)
	return blockOf(r), err
}

func (c *coupling) bufferedBytes(rank int) int64 {
	n, err := c.f.Process(rank).BufferedBytes(region)
	if err != nil {
		return 0
	}
	return n
}

// counters folds the framework's obsv registry by instrument name: labelled
// series of one instrument are summed (high-water marks, *.peak.*, take the
// maximum). A missing instrument is simply missing from the map.
func (c *coupling) counters() map[string]float64 {
	out := map[string]float64{}
	for key, v := range c.fw.Obsv().Registry.Snapshot() {
		name, _, _ := strings.Cut(key, "{")
		if strings.Contains(name, ".peak.") {
			out[name] = max(out[name], v)
		} else {
			out[name] += v
		}
	}
	return out
}

// exporterStats is the one thing no instrument carries per process: the
// buffer statistics of a single exporter process (p_s).
type exporterStats struct {
	exports, copies, unnecessaryCopies int
	bytesCopied                        int64
	copyTime, unnecessaryTime          time.Duration
	// onset is the timestamp of the first request from which no later
	// request saw an unnecessary copy — the paper's optimal state; -1 when
	// the run never reached it.
	onset float64
}

func (c *coupling) exporterStats(rank int) (exporterStats, error) {
	all, err := c.f.Process(rank).ExportStats(region)
	if err != nil {
		return exporterStats{}, err
	}
	s, ok := all["U."+region]
	if !ok {
		return exporterStats{}, fmt.Errorf("bench: no export statistics for U.%s", region)
	}
	out := exporterStats{
		exports: s.Exports, copies: s.Copies,
		unnecessaryCopies: s.UnnecessaryCopies, bytesCopied: s.BytesCopied,
		copyTime: s.CopyTime, unnecessaryTime: s.UnnecessaryTime,
		onset: -1,
	}
	for i := len(s.PerRequest) - 1; i >= 0 && s.PerRequest[i].UnnecessaryCopies == 0; i-- {
		out.onset = s.PerRequest[i].ReqTS
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// collective fixture: collective.New over Dispatcher over MemNetwork, no core

type collGroup struct {
	net   transport.Network
	comms []*collective.Comm
}

// newCollGroup is one cold fixture cycle of the collective workload: the
// network, one endpoint and dispatcher per rank, collective.New per rank.
func newCollGroup(size int, tr *tracer) (*collGroup, error) {
	g := &collGroup{net: tapped(transport.NewMemNetwork(), tr)}
	for r := 0; r < size; r++ {
		ep, err := g.net.Register(transport.Proc("bench", r))
		if err == nil {
			var c *collective.Comm
			if c, err = collective.New(transport.NewDispatcher(ep), "bench", r, size); err == nil {
				c.SetTimeout(callTimeout)
				g.comms = append(g.comms, c)
			}
		}
		if err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func (g *collGroup) close() { g.net.Close() }

func (g *collGroup) who(rank int) string { return transport.Proc("bench", rank).String() }

func (g *collGroup) allReduce(rank int, vals []float64) error {
	return g.comms[rank].AllReduceInPlace(vals, collective.Sum)
}

func (g *collGroup) bcast(rank, root int, data []byte) ([]byte, error) {
	return g.comms[rank].Bcast(root, data)
}

func (g *collGroup) allGather(rank int, part []byte) ([][]byte, error) {
	return g.comms[rank].AllGather(part)
}

func (g *collGroup) barrier(rank int) error { return g.comms[rank].Barrier() }

// ---------------------------------------------------------------------------
// isolated drives of single layers (per-layer metrics of kind D)

// pingPong measures the median round trip in microseconds of a payload-byte
// message answered by an ack-byte message between two endpoints of net,
// which it closes. With dispatch, both sides receive through a
// transport.Dispatcher.
func pingPong(net transport.Network, payload, ack, reps, n int, dispatch bool) (float64, error) {
	defer net.Close()
	a, err := net.Register(transport.Proc("ping", 0))
	if err != nil {
		return 0, err
	}
	b, err := net.Register(transport.Proc("pong", 0))
	if err != nil {
		return 0, err
	}
	recvA, recvB := a.Recv, b.Recv
	if dispatch {
		da, db := transport.NewDispatcher(a), transport.NewDispatcher(b)
		recvA = func() (transport.Message, error) { return da.Recv(transport.KindPoint) }
		recvB = func() (transport.Message, error) { return db.Recv(transport.KindPoint) }
	}
	out, back := make([]byte, payload), make([]byte, ack)
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			if _, err := recvB(); err != nil {
				return
			}
			if b.Send(transport.Message{Kind: transport.KindPoint, Dst: a.Addr(), Payload: back}) != nil {
				return
			}
		}
	}()
	var failed error
	us := medianBatchNS(reps, n, func() {
		if err := a.Send(transport.Message{Kind: transport.KindPoint, Dst: b.Addr(), Payload: out}); err != nil {
			failed = err
			return
		}
		if _, err := recvA(); err != nil {
			failed = err
		}
	}) / 1e3
	net.Close()
	<-echoDone
	return us, failed
}

// driveTransport: round trips over both backends, bulk rate over TCP, the
// dispatcher's share of a hop, and the two decorators as with/without ratios.
func driveTransport(out map[string]float64) error {
	const reps, n = 15, 200
	var failed error
	// rtt is pingPong that remembers the first failure.
	rtt := func(net transport.Network, payload, ack, reps, n int, dispatch bool) float64 {
		us, err := pingPong(net, payload, ack, reps, n, dispatch)
		if err != nil && failed == nil {
			failed = err
		}
		return us
	}
	mem := rtt(transport.NewMemNetwork(), 64, 64, reps, n, false)
	out["transport.mem.rtt_us"] = mem
	out["transport.dispatcher.hop_ns"] = (rtt(transport.NewMemNetwork(), 64, 64, reps, n, true) - mem) / 2 * 1e3
	reliable := transport.NewReliableNetwork(transport.NewMemNetwork(), transport.ReliableConfig{})
	out["transport.reliable.overhead_ratio"] = rtt(reliable, 64, 64, reps, n, false) / mem
	// Every coalesced hop waits for the flush tick, so fewer round trips do.
	coalescing := transport.NewCoalescingNetwork(transport.NewMemNetwork(), transport.CoalesceConfig{})
	out["transport.coalesce.overhead_ratio"] = rtt(coalescing, 64, 64, reps, 20, false) / mem

	for _, c := range []struct {
		name                  string
		payload, ack, reps, n int
	}{{"transport.tcp.rtt_us", 64, 64, reps, n}, {"transport.tcp.mb_per_s", 1 << 20, 1, 9, 8}} {
		router, err := transport.StartTCPRouter("127.0.0.1:0")
		if err != nil {
			return err
		}
		out[c.name] = rtt(transport.NewTCPNetwork(router.ListenAddr()), c.payload, c.ack, c.reps, c.n, false)
		router.Close()
	}
	out["transport.tcp.mb_per_s"] = float64(1<<20) / out["transport.tcp.mb_per_s"] // bytes per microsecond = MB/s
	return failed
}

// driveWire: the binary frame codec on a control-sized and a 1 MiB data
// message, the float64 codec, and gob on a control struct.
func driveWire(out map[string]float64) error {
	type control struct {
		Region       string
		ReqID        int
		ReqTS, Match float64
	}
	ctl := transport.Message{
		Kind: transport.KindResponse, Src: transport.Proc("F", 3), Dst: transport.Rep("F"),
		Tag: region, Seq: 7, Payload: wire.MustMarshal(control{Region: region, ReqID: 12, ReqTS: 240, Match: 239.6}),
	}
	vals := make([]float64, 1<<17)
	for i := range vals {
		vals[i] = float64(i)
	}
	data := transport.Message{
		Kind: transport.KindData, Src: transport.Proc("F", 1), Dst: transport.Proc("U", 0),
		Tag: "F.f>U.f", Seq: 9, Payload: wire.EncodeFloat64s(vals),
	}
	interner := wire.NewInterner()
	var failed error
	for _, c := range []struct {
		name string
		msg  transport.Message
		n    int
	}{{"ctl", ctl, 2000}, {"1MiB", data, 8}} {
		buf := make([]byte, 0, transport.FrameSize(c.msg))
		out["wire.frame_encode_"+c.name+"_ns"] = medianBatchNS(11, c.n, func() { buf = transport.AppendFrame(buf[:0], c.msg) })
		out["wire.frame_decode_"+c.name+"_ns"] = medianBatchNS(11, c.n, func() {
			if _, err := transport.DecodeFrame(buf, interner); err != nil {
				failed = err
			}
		})
	}
	enc := make([]byte, 0, wire.Float64sSize(len(vals)))
	out["wire.floats_ns_per_kb"] = medianBatchNS(11, 8, func() {
		enc = wire.AppendFloat64s(enc[:0], vals)
		if err := wire.DecodeFloat64sInto(enc, vals); err != nil {
			failed = err
		}
	}) / (2 * float64(len(enc)) / 1024)
	out["wire.gob_marshal_ns"] = medianBatchNS(11, 500, func() {
		if _, err := wire.Marshal(control{Region: region, ReqID: 12, ReqTS: 240, Match: 239.6}); err != nil {
			failed = err
		}
	})
	return failed
}

// driveMatch: the matcher at the history length of one epoch (1001 exports).
func driveMatch(out map[string]float64) error {
	const history = 1001
	var failed error
	out["match.add_export_ns"] = medianBatchNS(11, 20, func() {
		m, err := match.New(match.REGL, 2.5)
		for k := 1; err == nil && k <= history; k++ {
			err = m.AddExport(float64(k) + 0.6)
		}
		if err != nil {
			failed = err
		}
	}) / history
	m, err := match.New(match.REGL, 2.5)
	for k := 1; err == nil && k <= history; k++ {
		err = m.AddExport(float64(k) + 0.6)
	}
	if err != nil {
		return err
	}
	x := 0
	out["match.evaluate_ns"] = medianBatchNS(11, 5000, func() {
		x = x%50 + 1
		if d := m.Evaluate(float64(20 * x)); d.Result != match.Match {
			failed = fmt.Errorf("bench: match drive: request %d gave %v", 20*x, d.Result)
		}
	})
	return failed
}

// driveRep: one request aggregated over four processes, cycling through the
// five legal response mixtures (all MATCH; MATCH with PENDING; all NO MATCH;
// NO MATCH with PENDING; PENDING later resolved to MATCH).
func driveRep(out map[string]float64) error {
	const procs = 4
	mixtures := [][]rep.Response{
		{{Result: match.Match, MatchTS: 19.6}, {Result: match.Match, MatchTS: 19.6}, {Result: match.Match, MatchTS: 19.6}, {Result: match.Match, MatchTS: 19.6}},
		{{Result: match.Match, MatchTS: 19.6}, {Result: match.Pending}, {Result: match.Match, MatchTS: 19.6}, {Result: match.Pending}},
		{{Result: match.NoMatch}, {Result: match.NoMatch}, {Result: match.NoMatch}, {Result: match.NoMatch}},
		{{Result: match.NoMatch}, {Result: match.Pending}, {Result: match.Pending}, {Result: match.NoMatch}},
		{{Result: match.Pending}, {Result: match.Pending}, {Result: match.Pending}, {Result: match.Match, MatchTS: 19.6}},
	}
	var failed error
	i := 0
	out["rep.aggregate_ns"] = medianBatchNS(11, 5000, func() {
		mix := mixtures[i%len(mixtures)]
		i++
		req := rep.NewRequest(20, procs)
		var final *rep.Answer
		for rank, resp := range mix {
			resp.Rank = rank
			ans, err := req.Add(resp)
			if err != nil {
				failed = err
			}
			if ans != nil {
				final = ans
			}
		}
		if final == nil {
			failed = fmt.Errorf("bench: rep drive: mixture %d formed no answer", (i-1)%len(mixtures))
		}
	})
	return failed
}

// driveDecomp: the redistribution plan of the workload's layout pair, and
// pack and unpack of the largest transfer of that plan.
func driveDecomp(shape couplingShape, out map[string]float64) error {
	fLayout, uLayout, err := shape.layouts()
	if err != nil {
		return err
	}
	var plan []decomp.Transfer
	var failed error
	out["decomp.schedule_us"] = medianBatchNS(11, 50, func() {
		if plan, err = decomp.FullSchedule(fLayout, uLayout); err != nil {
			failed = err
		}
	}) / 1e3
	if failed != nil {
		return failed
	}
	out["decomp.transfers_per_step"] = float64(len(plan))
	big := plan[0]
	for _, tr := range plan {
		if tr.Sub.Area() > big.Sub.Area() {
			big = tr
		}
	}
	src, dst := decomp.NewGridFor(fLayout, big.From), decomp.NewGridFor(uLayout, big.To)
	vals := make([]float64, big.Sub.Area())
	kb := float64(8*len(vals)) / 1024
	out["decomp.pack_ns_per_kb"] = medianBatchNS(11, 50, func() { src.PackInto(big.Sub, vals) }) / kb
	out["decomp.unpack_ns_per_kb"] = medianBatchNS(11, 50, func() {
		if err := dst.Unpack(big.Sub, vals); err != nil {
			failed = err
		}
	}) / kb
	return failed
}

// driveBuffer drives one buffer.Manager with blockFloats-sized objects in
// the two regimes of Figure 4: requests behind the exports (every Offer
// copies) and requests ahead of them (Offers below the acceptable region
// skip). One request per 20 exports, REGL 2.5, 50 requests, as in an epoch.
func driveBuffer(blockFloats int, out map[string]float64) error {
	const every, requests = 20, 50
	data := make([]float64, blockFloats)
	run := func(requestFirst bool) (offerNS, requestNS float64, err error) {
		m, err := buffer.NewManager(buffer.Config{Policy: match.REGL, Tol: 2.5})
		if err != nil {
			return 0, 0, err
		}
		var offers, reqs []float64
		request := func(j int) error {
			t0 := nowNS()
			res, err := m.OnRequest(float64(every * j))
			reqs = append(reqs, float64(nowNS()-t0))
			for _, s := range res.Sends {
				m.TransferDone(s.MatchTS)
			}
			return err
		}
		for j := 1; j <= requests; j++ {
			if requestFirst {
				if err := request(j); err != nil {
					return 0, 0, err
				}
			}
			var ns int64
			counted := 0
			for k := every*(j-1) + 1; k <= every*j; k++ {
				t0 := nowNS()
				res, err := m.Offer(float64(k)+0.6, data)
				d := nowNS() - t0
				if err != nil {
					return 0, 0, err
				}
				for _, s := range res.Sends {
					m.TransferDone(s.MatchTS)
				}
				// With the request ahead, only the skipped Offers count;
				// behind it, every Offer copies.
				if res.Buffered != requestFirst {
					ns += d
					counted++
				}
			}
			if counted > 0 {
				offers = append(offers, float64(ns)/float64(counted))
			}
			if !requestFirst {
				if err := request(j); err != nil {
					return 0, 0, err
				}
			}
		}
		return median(offers), median(reqs), nil
	}
	copyNS, reqNS, err := run(false)
	if err != nil {
		return err
	}
	skipNS, _, err := run(true)
	if err != nil {
		return err
	}
	out["buffer.offer_copy_ns"] = copyNS
	out["buffer.offer_skip_ns"] = skipNS
	out["buffer.on_request_ns"] = reqNS
	return nil
}

// driveCore: Export of a region no connection names (the low-overhead
// floor), and Import on a 4x4 grid whose version is already buffered — the
// request -> rep -> forward -> match -> answer -> transfer round trip with
// next to no data.
func driveCore(out map[string]float64) error {
	lone := &config.Config{Programs: []config.Program{{Name: "F", Cluster: "local", Binary: "builtin", Procs: 1}}}
	fw, err := core.New(lone, core.Options{Timeout: callTimeout})
	if err != nil {
		return err
	}
	layout, err := decomp.NewRowBlock(64, 64, 1)
	if err == nil {
		err = fw.MustProgram("F").DefineRegion("g", layout)
	}
	if err == nil {
		err = fw.Start()
	}
	if err != nil {
		fw.Close()
		return err
	}
	p := fw.MustProgram("F").Process(0)
	data := make([]float64, 64*64)
	ts := 0.0
	var failed error
	out["core.export_unconnected_ns"] = medianBatchNS(11, 5000, func() {
		ts++
		if err := p.Export("g", ts, data); err != nil {
			failed = err
		}
	})
	fw.Close()
	if failed != nil {
		return failed
	}

	const imports = 301
	c, err := newCoupling(couplingShape{grid: 4, fRows: 1, fCols: 1, uProcs: 1, tol: 0.5}, nil)
	if err != nil {
		return err
	}
	defer c.close()
	small := make([]float64, 16)
	for k := 1; k <= imports+1; k++ {
		if err := c.export(0, float64(k), small); err != nil {
			return err
		}
	}
	trips := make([]float64, 0, imports)
	for k := 1; k <= imports; k++ {
		t0 := nowNS()
		matched, _, err := c.importInto(0, float64(k), small)
		if err != nil {
			return err
		}
		if !matched {
			return fmt.Errorf("bench: core drive: import %d did not match", k)
		}
		trips = append(trips, float64(nowNS()-t0)/1e3)
	}
	out["core.rep_roundtrip_us"] = median(trips)
	return nil
}
