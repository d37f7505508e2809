package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Process is one rank of a parallel program. Its Export and Import methods
// are the framework's collective operations: every process of the program
// must call them in the same order with the same timestamps (Property 1),
// though not at the same time.
//
// Each export connection runs an independent pipeline (exportConn): its own
// lock shard, its own bounded job queue and its own sender goroutine, so
// Export returns to the application's compute loop as soon as the buffering
// decision is made, and two regions' pipelines never contend on a shared
// lock.
type Process struct {
	prog *Program
	rank int
	d    *transport.Dispatcher
	// commMu guards the comm pointer, which RecoverGroup swaps for the shrunk
	// successor while the status page may be reading instruments; collective
	// calls themselves stay single-goroutine on the owning process.
	commMu sync.Mutex
	comm   *collective.Comm

	// tracer/ring are the span-recording hooks (nil unless the framework's
	// observer traces); every record site nil-checks ring, so the disabled
	// path costs one branch. The export managers record the paper-figure
	// events on the same ring.
	tracer *obsv.Tracer
	ring   *obsv.Ring

	// pool is the process-wide buffer pool shared by every connection's
	// manager.
	pool *buffer.Pool

	exps map[string]*exportRegion
	imps map[string]*importState

	expConnByKey map[string]*exportConn
	impByKey     map[string]*importState

	expectedLayouts int
	layoutsSeen     map[string]bool
	early           []transport.Message // held back until the last layout (handleControl)
	ready           chan struct{}
	abort           chan struct{}
	abortOnce       sync.Once
}

// exportRegion groups the per-connection export pipelines of one region.
type exportRegion struct {
	def   regionDef
	block decomp.Rect
	conns []*exportConn
	// store shares one physical snapshot per timestamp across the region's
	// connections when it is fanned out to several importers (one memcpy per
	// export, however many connections buffer it). nil for single-connection
	// regions, which use the manager's own recycling copy path.
	store *versionStore
}

// versionStore is the refcounted shared-snapshot table of a fanned-out
// export region. It carries its own lock: the region's connections drive it
// from under their independent per-connection locks.
type versionStore struct {
	mu       sync.Mutex
	versions map[float64]*sharedVersion
}

type sharedVersion struct {
	data []float64
	refs int
}

func newVersionStore() *versionStore {
	return &versionStore{versions: make(map[float64]*sharedVersion)}
}

// snapshot returns the shared copy for ts, creating it on first use.
func (vs *versionStore) snapshot(ts float64, data []float64) []float64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if v, ok := vs.versions[ts]; ok {
		v.refs++
		return v.data
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	vs.versions[ts] = &sharedVersion{data: buf, refs: 1}
	return buf
}

// release drops one reference; the version is forgotten when the last
// manager frees it (the data itself may still be aliased by an in-flight
// transfer, so it is left to the garbage collector, never recycled).
func (vs *versionStore) release(ts float64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v, ok := vs.versions[ts]
	if !ok {
		return
	}
	v.refs--
	if v.refs <= 0 {
		delete(vs.versions, ts)
	}
}

// live returns the number of distinct shared versions currently held.
func (vs *versionStore) live() int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return len(vs.versions)
}

// exportConn is one connection's export pipeline on this process.
type exportConn struct {
	cc    config.Connection
	key   string
	block decomp.Rect

	// mu is this connection's shard of the former process-wide lock. It
	// serializes the manager state machine between the application goroutine
	// (Export, FinishRegion, Flush), the control loop (forwarded requests,
	// buddy-help), the sender goroutine (TransferDone) and peer eviction —
	// and, crucially, pipelines of different connections never contend.
	mu       sync.Mutex
	mgr      *buffer.Manager
	outgoing []decomp.Transfer // this rank's sends of the redistribution plan

	// jobs + permits implement the bounded pipeline queue. Producers first
	// acquire a permit — blocking there (never while holding mu) is the
	// backpressure — then push under mu, which cannot block because at most
	// cap(permits) jobs exist. The sender pops, processes, applies
	// TransferDone under mu, and finally releases the permit.
	jobs    chan exportJob
	permits chan struct{}

	// Pipeline instruments, preallocated from the observability registry
	// (labels: program, rank, conn) so the hot path is a single atomic op.
	stall     *obsv.Counter // core.export.stall.ns: producers blocked on a full queue
	queued    *obsv.Counter // core.pipeline.jobs: jobs enqueued
	dataSends *obsv.Counter // core.data.sends: KindData messages sent
	flushes   *obsv.Counter // core.pipeline.flushes: drain barriers processed
	peakDepth *obsv.Gauge   // core.pipeline.peak.depth: high-water mark of len(jobs)

	// flows maps in-flight request IDs to their wire trace IDs (guarded by
	// mu; nil when tracing is off, so the disabled path skips the map
	// entirely). Entries are dropped when the request's decision goes final.
	flows map[int]uint64
}

// exportJob is one unit of deferred data-plane work: the responses a manager
// decision produced (in decision order) and the matched objects to transfer.
// A job with a non-nil drain channel is a barrier: the sender closes it once
// every earlier job of the connection is fully processed.
type exportJob struct {
	resps []respData
	sends []buffer.SendItem
	// sendFlows carries each send's wire trace ID, parallel to sends (nil
	// when tracing is off).
	sendFlows []uint64
	drain     chan struct{}
}

// respData is one response to the rep, captured at decision time.
type respData struct {
	reqID   int
	reqTS   float64
	result  match.Result
	matchTS float64
	latest  float64
	flow    uint64 // wire trace ID of the request (0 when tracing is off)
}

// ConnStats is one export connection's buffer statistics. The connection's
// data-plane counters are registry instruments (core.pipeline.jobs,
// core.data.sends, core.pipeline.flushes, core.export.stall.ns,
// core.pipeline.peak.depth; labels program, rank, conn).
type ConnStats struct {
	buffer.Stats
}

// importState is one imported region's receive machinery on this process.
type importState struct {
	cc       config.Connection
	key      string
	block    decomp.Rect
	incoming []decomp.Transfer
	answers  chan answerMsg
	nextCall int
	// issued records the timestamp of every import call, in issue order, for
	// the recovery checkpoint (nil when recovery is off).
	issued []float64

	// frames takes every data frame back once decoded or dropped; have marks
	// the incoming transfers the running Import has unpacked.
	frames *buffer.Frames
	have   []bool

	pmu    sync.Mutex
	pieces map[int][]piece
	// completedThrough is the fully-consumed-imports watermark: data frames
	// for requests below it are recovery resends of objects this process
	// already unpacked, and are dropped instead of accumulating.
	completedThrough int
	signal           chan struct{}
}

// piece is one received data frame, filed raw for Import to decode.
type piece struct {
	matchTS float64
	sub     decomp.Rect
	frame   []byte
}

func (st *importState) addPiece(reqID int, p piece) {
	st.pmu.Lock()
	if reqID < st.completedThrough {
		st.pmu.Unlock()
		st.frames.Put(p.frame)
		return
	}
	if st.pieces == nil {
		st.pieces = make(map[int][]piece)
	}
	st.pieces[reqID] = append(st.pieces[reqID], p)
	st.pmu.Unlock()
	select {
	case st.signal <- struct{}{}:
	default:
	}
}

// completed advances the fully-consumed watermark past reqID and drops any
// leftover pieces at or below it (duplicates a recovery resend delivered
// after the import finished).
func (st *importState) completed(reqID int) {
	st.pmu.Lock()
	if reqID+1 > st.completedThrough {
		st.completedThrough = reqID + 1
	}
	for id, ps := range st.pieces {
		if id < st.completedThrough {
			for _, pc := range ps {
				st.frames.Put(pc.frame)
			}
			delete(st.pieces, id)
		}
	}
	st.pmu.Unlock()
}

func newProcess(p *Program, rank int, d *transport.Dispatcher) (*Process, error) {
	comm, err := collective.New(d, p.name, rank, p.n)
	if err != nil {
		return nil, err
	}
	proc := &Process{
		prog:         p,
		rank:         rank,
		d:            d,
		comm:         comm,
		exps:         make(map[string]*exportRegion),
		imps:         make(map[string]*importState),
		expConnByKey: make(map[string]*exportConn),
		impByKey:     make(map[string]*importState),
		layoutsSeen:  make(map[string]bool),
		ready:        make(chan struct{}),
		abort:        make(chan struct{}),
	}
	proc.tracer = p.fw.tracer
	proc.ring = proc.tracer.Ring(p.name, rank)
	comm.SetInstruments(collective.NewInstruments(p.fw.obs.Registry, p.name))
	comm.SetTimeout(p.fw.opts.Timeout)
	// The fault events (revoke, agree, shrink) go to the process's ring.
	comm.SetRing(proc.ring)
	return proc, nil
}

func (p *Process) addr() transport.Addr { return transport.Proc(p.prog.name, p.rank) }

// Rank returns this process's rank within its program.
func (p *Process) Rank() int { return p.rank }

// Comm returns the process's intra-program collective communicator (used by
// application code for halo exchange, reductions, barriers, ...). After a
// RecoverGroup this is the shrunk survivor communicator.
func (p *Process) Comm() *collective.Comm {
	p.commMu.Lock()
	defer p.commMu.Unlock()
	return p.comm
}

// Block returns this process's global sub-rectangle of a defined region.
func (p *Process) Block(region string) (decomp.Rect, error) {
	def, ok := p.prog.regions[region]
	if !ok {
		return decomp.Rect{}, fmt.Errorf("core: %s: undefined region %q", p.addr(), region)
	}
	return def.layout.Block(p.rank), nil
}

// ExportStats returns the buffer statistics per connection
// (keyed by the import endpoint, e.g. "U.f") for an exported region.
func (p *Process) ExportStats(region string) (map[string]ConnStats, error) {
	st, ok := p.exps[region]
	if !ok {
		return nil, fmt.Errorf("core: %s: region %q has no export state", p.addr(), region)
	}
	out := make(map[string]ConnStats, len(st.conns))
	for _, c := range st.conns {
		c.mu.Lock()
		s := c.mgr.Stats()
		c.mu.Unlock()
		out[c.cc.Import.String()] = ConnStats{Stats: s}
	}
	return out, nil
}

// BufferedBytes sums the live buffered bytes across an exported region's
// connections.
func (p *Process) BufferedBytes(region string) (int64, error) {
	st, ok := p.exps[region]
	if !ok {
		return 0, fmt.Errorf("core: %s: region %q has no export state", p.addr(), region)
	}
	var total int64
	for _, c := range st.conns {
		c.mu.Lock()
		total += c.mgr.BufferedBytes()
		c.mu.Unlock()
	}
	return total, nil
}

// start builds the per-connection state (pipelines whose layouts arrive via
// the rep during the Start handshake) and launches the control, data and
// sender goroutines.
func (p *Process) start() {
	fw := p.prog.fw
	// First pass: group exporting connections by region so fanned-out
	// regions can share snapshots.
	expConns := make(map[string][]config.Connection)
	for _, conn := range fw.cfg.Connections {
		if conn.Export.Program == p.prog.name {
			expConns[conn.Export.Region] = append(expConns[conn.Export.Region], conn)
		}
	}
	// One buffer pool per process: every connection's manager recycles from
	// the same power-of-two size classes, so a freed buffer of one
	// connection serves the next export of any other (the pool is
	// concurrency-safe; the per-connection locks are independent).
	reg := fw.obs.Registry
	procLabels := []obsv.Label{obsv.L("program", p.prog.name), obsv.L("rank", strconv.Itoa(p.rank))}
	if len(expConns) > 0 {
		p.pool = buffer.NewPool(0)
		pool := p.pool
		reg.GaugeFunc("buffer.pool.reuse", func() float64 { return float64(pool.Stats().Hits) }, procLabels...)
		reg.GaugeFunc("buffer.pool.misses", func() float64 { return float64(pool.Stats().Misses) }, procLabels...)
		reg.GaugeFunc("buffer.pool.free", func() float64 { return float64(pool.Free()) }, procLabels...)
	}
	for region, conns := range expConns {
		def := p.prog.regions[region]
		expReg := &exportRegion{def: def, block: def.layout.Block(p.rank)}
		if len(conns) > 1 {
			expReg.store = newVersionStore()
		}
		p.exps[region] = expReg
		for _, conn := range conns {
			p.expectedLayouts++
			mcfg := buffer.Config{
				Policy:   conn.Policy,
				Tol:      conn.Tolerance,
				Ring:     p.ring,
				MaxBytes: fw.opts.BufferMaxBytes,
				Pool:     p.pool,
				Now:      fw.opts.Clock.Now,
				// Under recovery, matched versions are retained until the
				// importer's checkpoint acks release them — the resync window
				// a restarted importer replays from.
				Retain: p.prog.rec != nil,
			}
			if expReg.store != nil {
				mcfg.Snapshot = expReg.store.snapshot
				mcfg.Release = expReg.store.release
			}
			mgr, err := buffer.NewManager(mcfg)
			if err != nil {
				p.prog.fail(err)
				return
			}
			key := connKey(conn.Export.String(), conn.Import.String())
			if ps := p.prog.rec.procState(p.rank); ps != nil {
				if mst, ok := ps.Exports[key]; ok {
					if err := mgr.Restore(mst); err != nil {
						p.prog.fail(fmt.Errorf("core: %s: restore %s: %w", p.addr(), key, err))
						return
					}
				}
			}
			connLabels := append(append([]obsv.Label(nil), procLabels...), obsv.L("conn", key))
			ec := &exportConn{
				cc:      conn,
				key:     key,
				mgr:     mgr,
				block:   expReg.block,
				jobs:    make(chan exportJob, DefaultExportQueueDepth),
				permits: make(chan struct{}, DefaultExportQueueDepth),

				stall:     reg.Counter("core.export.stall.ns", connLabels...),
				queued:    reg.Counter("core.pipeline.jobs", connLabels...),
				dataSends: reg.Counter("core.data.sends", connLabels...),
				flushes:   reg.Counter("core.pipeline.flushes", connLabels...),
				peakDepth: reg.Gauge("core.pipeline.peak.depth", connLabels...),
			}
			if p.tracer != nil {
				ec.flows = make(map[int]uint64)
			}
			// The buffering decisions themselves are counted by the manager;
			// bridge its skip/copy counters into the registry at exposition
			// time (the closure takes the connection lock briefly).
			reg.GaugeFunc("core.export.skips", func() float64 {
				ec.mu.Lock()
				defer ec.mu.Unlock()
				return float64(ec.mgr.Stats().Skips)
			}, connLabels...)
			reg.GaugeFunc("core.export.copies", func() float64 {
				ec.mu.Lock()
				defer ec.mu.Unlock()
				return float64(ec.mgr.Stats().Copies)
			}, connLabels...)
			expReg.conns = append(expReg.conns, ec)
			p.expConnByKey[key] = ec
			go p.sender(ec)
		}
	}
	for _, conn := range fw.cfg.Connections {
		key := connKey(conn.Export.String(), conn.Import.String())
		if conn.Import.Program == p.prog.name {
			p.expectedLayouts++
			def := p.prog.regions[conn.Import.Region]
			st := &importState{
				cc:      conn,
				key:     key,
				block:   def.layout.Block(p.rank),
				answers: make(chan answerMsg, 4096),
				signal:  make(chan struct{}, 1),
				frames:  p.d.Frames(),
			}
			if ps := p.prog.rec.procState(p.rank); ps != nil {
				if ims, ok := ps.Imports[key]; ok {
					st.issued = append([]float64(nil), ims.Issued...)
					st.nextCall = len(st.issued)
					st.completedThrough = len(st.issued)
				}
			}
			p.imps[conn.Import.Region] = st
			p.impByKey[key] = st
		}
	}
	// Exported regions with no connections still deserve state so Export on
	// them takes the documented low-overhead path.
	if p.expectedLayouts == 0 {
		close(p.ready)
	}
	go p.ctlLoop()
	go p.dataLoop()
}

// waitReady blocks until the layout handshake completed for this process.
func (p *Process) waitReady(d time.Duration) error {
	t := p.prog.fw.opts.Clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.ready:
		return nil
	case <-p.abort:
		if err := p.prog.err(); err != nil {
			return err
		}
		return fmt.Errorf("aborted during layout handshake")
	case <-t.C():
		return fmt.Errorf("layout handshake timed out")
	}
}

func (p *Process) abortWith(err error) {
	p.abortOnce.Do(func() { close(p.abort) })
}

func (p *Process) checkAbort() error {
	select {
	case <-p.abort:
		if err := p.prog.err(); err != nil {
			return err
		}
		return fmt.Errorf("core: %s aborted", p.addr())
	default:
		return nil
	}
}

func (p *Process) closeProc() {
	p.abortWith(nil)
	p.d.Close()
}

// ctlLoop is the process's framework-control goroutine: it applies forwarded
// requests, buddy-help messages and layout announcements to the export
// pipelines, and routes import answers to waiting Import calls. Bulk data
// frames are decoded on the separate dataLoop goroutine, so a flood of them
// cannot delay control traffic.
func (p *Process) ctlLoop() {
	for {
		m, err := p.d.Recv(transport.KindControl)
		if err != nil {
			return
		}
		p.handleControl(m)
	}
}

// dataLoop is the process's bulk-data goroutine: it decodes KindData frames
// and files the pieces for waiting Import calls, independently of the
// control loop.
func (p *Process) dataLoop() {
	for {
		m, err := p.d.Recv(transport.KindData)
		if err != nil {
			return
		}
		p.handleData(m)
	}
}

func (p *Process) handleControl(m transport.Message) {
	// Nothing but layouts is applied until the last layout is in: a restored
	// exporter hears replayed requests before the layout reply, and a job
	// with sends run then would race handleLayout on ec.outgoing and send
	// the data nowhere.
	if m.Tag != "layout" && len(p.layoutsSeen) < p.expectedLayouts {
		p.early = append(p.early, m)
		return
	}
	switch m.Tag {
	case "layout":
		var lm layoutMsg
		if p.prog.decode(m, lm.fields) {
			p.handleLayout(lm)
		}
	case "forward":
		var rm requestMsg
		if p.prog.decode(m, rm.fields) {
			p.handleForward(rm, m.Trace)
		}
	case "buddy":
		var am answerMsg
		if p.prog.decode(m, am.fields) {
			p.handleBuddy(am, m.Trace)
		}
	case releaseTag:
		var lm releaseMsg
		if !p.prog.decode(m, lm.fields) {
			return
		}
		if ec, ok := p.expConnByKey[lm.Conn]; ok {
			ec.mu.Lock()
			ec.mgr.ReleaseThrough(lm.Through)
			ec.mu.Unlock()
		}
	case resendTag:
		var rm requestMsg
		if p.prog.decode(m, rm.fields) {
			p.handleResend(rm, m.Trace)
		}
	case "answer":
		var am answerMsg
		if !p.prog.decode(m, am.fields) {
			return
		}
		st, ok := p.impByKey[am.Conn]
		if !ok {
			p.prog.fail(fmt.Errorf("core: %s: answer for unknown connection %q", p.addr(), am.Conn))
			return
		}
		am.flow = m.Trace
		st.answers <- am
	default:
		p.prog.fail(fmt.Errorf("core: %s: unknown control tag %q", p.addr(), m.Tag))
	}
}

// handleLayout finishes wiring one connection once the peer layout is known:
// it computes the redistribution plan and this rank's share of it. Repeated
// announcements (the distributed-mode handshake re-sends until the peer is
// up) are ignored. The last one replays the control messages held back
// until then.
func (p *Process) handleLayout(lm layoutMsg) {
	if p.layoutsSeen[lm.Conn] {
		return
	}
	remote, err := lm.Remote.Build()
	if err != nil {
		p.prog.fail(err)
		return
	}
	if ec, ok := p.expConnByKey[lm.Conn]; ok {
		local := p.prog.regions[ec.cc.Export.Region].layout
		plan, err := decomp.Schedule(local, remote, coupledWindow(ec.cc, local))
		if err != nil {
			p.prog.fail(err)
			return
		}
		ec.outgoing = decomp.Outgoing(plan, p.rank)
	}
	if st, ok := p.impByKey[lm.Conn]; ok {
		local := p.prog.regions[st.cc.Import.Region].layout
		plan, err := decomp.Schedule(remote, local, coupledWindow(st.cc, local))
		if err != nil {
			p.prog.fail(err)
			return
		}
		st.incoming = decomp.Incoming(plan, p.rank)
	}
	p.layoutsSeen[lm.Conn] = true
	if len(p.layoutsSeen) == p.expectedLayouts {
		for _, m := range p.early {
			p.handleControl(m)
		}
		p.early = nil
		close(p.ready)
	}
}

// jobFromOffer captures an Offer/Finish outcome as a pipeline job.
func jobFromOffer(resolutions []buffer.Resolution, sends []buffer.SendItem) exportJob {
	j := exportJob{sends: sends}
	if len(resolutions) > 0 {
		j.resps = make([]respData, len(resolutions))
		for i, r := range resolutions {
			j.resps[i] = respData{
				reqID: r.ReqIndex, reqTS: r.ReqTS,
				result: r.Decision.Result, matchTS: r.Decision.MatchTS, latest: r.Decision.Latest,
			}
		}
	}
	return j
}

// handleForward applies a forwarded import request to the connection's
// pipeline and queues the reply to the rep (the paper's step (1)-(2) in
// Section 4). Queueing the reply — rather than sending it after the lock is
// dropped — pins the per-connection ReqID order: a later resolution produced
// by a concurrent Export can no longer overtake this request's first
// (possibly PENDING) response on the wire.
func (p *Process) handleForward(rm requestMsg, flow uint64) {
	ec, ok := p.expConnByKey[rm.Conn]
	if !ok {
		p.prog.fail(fmt.Errorf("core: %s: forwarded request for unknown connection %q", p.addr(), rm.Conn))
		return
	}
	if !p.acquirePermit(ec) {
		return
	}
	start := p.tracer.Now()
	ec.mu.Lock()
	if ec.flows != nil && flow != 0 {
		ec.flows[rm.ReqID] = flow
	}
	rr, fresh, err := ec.mgr.OnRequestAt(rm.ReqID, rm.ReqTS)
	if err == nil && !fresh && p.prog.rec == nil {
		// Without recovery a replayed request id is a protocol violation; with
		// it, the restarted rep is re-driving requests this manager already
		// saw, and OnRequestAt re-answered idempotently (re-sending matched
		// data when still buffered).
		err = fmt.Errorf("core: %s: request id drift: local %d, rep %d", p.addr(), ec.mgr.NumRequests()-1, rm.ReqID)
	}
	if err != nil {
		ec.mu.Unlock()
		p.releasePermit(ec)
		p.prog.fail(err)
		return
	}
	if !fresh && len(rr.Sends) > 0 {
		p.prog.rec.replays.Add(uint64(len(rr.Sends)))
	}
	d := rr.Decision
	job := exportJob{
		resps: []respData{{reqID: rm.ReqID, reqTS: rm.ReqTS, result: d.Result, matchTS: d.MatchTS, latest: d.Latest}},
		sends: rr.Sends,
	}
	p.attachFlows(ec, &job)
	p.dispatchLocked(ec, job)
	ec.mu.Unlock()
	if p.ring != nil {
		p.ring.Record(obsv.Span{
			Name: "resolve", TS: start, Dur: p.tracer.Now() - start,
			Flow: flow, Arg: int64(rm.ReqID), Detail: d.Result.String(),
		})
	}
}

// handleResend re-feeds a replayed import request's matched data: the rep
// re-answered a restarted importer from its stored final, and this process
// re-sends its share of the matched version (still buffered — versions are
// retained until the importer's checkpoint acks cover them).
func (p *Process) handleResend(rm requestMsg, flow uint64) {
	ec, ok := p.expConnByKey[rm.Conn]
	if !ok {
		p.prog.fail(fmt.Errorf("core: %s: resend for unknown connection %q", p.addr(), rm.Conn))
		return
	}
	if !p.acquirePermit(ec) {
		return
	}
	ec.mu.Lock()
	item, ok, err := ec.mgr.ResendData(rm.ReqID)
	if err != nil {
		ec.mu.Unlock()
		p.releasePermit(ec)
		p.prog.fail(err)
		return
	}
	if !ok {
		// Undecided (the answer will carry the data when it forms) or no
		// longer buffered (the importer checkpointed past it and will not
		// consume it) — nothing to re-feed.
		ec.mu.Unlock()
		p.releasePermit(ec)
		return
	}
	if p.prog.rec != nil {
		p.prog.rec.replays.Inc()
	}
	job := exportJob{sends: []buffer.SendItem{item}}
	if p.tracer != nil && flow != 0 {
		job.sendFlows = []uint64{flow}
	}
	p.dispatchLocked(ec, job)
	ec.mu.Unlock()
}

// handleBuddy applies a buddy-help message: the collective answer for a
// request this process reported PENDING.
func (p *Process) handleBuddy(am answerMsg, flow uint64) {
	ec, ok := p.expConnByKey[am.Conn]
	if !ok {
		p.prog.fail(fmt.Errorf("core: %s: buddy-help for unknown connection %q", p.addr(), am.Conn))
		return
	}
	if !p.acquirePermit(ec) {
		return
	}
	if p.ring != nil {
		p.ring.Record(obsv.Span{Name: "buddy", TS: p.tracer.Now(), Flow: flow, Arg: int64(am.ReqID), Detail: am.Result.String()})
	}
	ec.mu.Lock()
	if ec.flows != nil {
		delete(ec.flows, am.ReqID) // decision is final; the buddy message carries the flow
	}
	sends, err := ec.mgr.OnFinal(am.ReqID, am.Result, am.MatchTS)
	if err != nil {
		ec.mu.Unlock()
		p.releasePermit(ec)
		p.prog.fail(err)
		return
	}
	if len(sends) == 0 {
		ec.mu.Unlock()
		p.releasePermit(ec)
		return
	}
	job := exportJob{sends: sends}
	if p.tracer != nil && flow != 0 {
		job.sendFlows = make([]uint64, len(sends))
		for i := range job.sendFlows {
			job.sendFlows[i] = flow
		}
	}
	p.dispatchLocked(ec, job)
	ec.mu.Unlock()
}

// attachFlows annotates a job's responses and sends with the wire trace IDs
// of the requests they belong to, and forgets the flow of every request
// whose decision went final (its last response). Called with ec.mu held;
// no-op when tracing is off (ec.flows == nil).
func (p *Process) attachFlows(ec *exportConn, j *exportJob) {
	if ec.flows == nil {
		return
	}
	if len(j.sends) > 0 {
		j.sendFlows = make([]uint64, len(j.sends))
		for i, s := range j.sends {
			j.sendFlows[i] = ec.flows[s.ReqIndex]
		}
	}
	for i := range j.resps {
		r := &j.resps[i]
		r.flow = ec.flows[r.reqID]
		if r.result != match.Pending {
			delete(ec.flows, r.reqID)
		}
	}
}

// handleData files one piece of a matched distributed object. A frame for a
// connection this process does not import — a straggler that outlived its
// peer's teardown, or one duplicated by a faulty transport — is dropped and
// counted (core.data.dropped) rather than failing the program.
func (p *Process) handleData(m transport.Message) {
	st, ok := p.impByKey[m.Tag]
	if !ok {
		p.prog.proto.dataDropped.Inc()
		p.d.Frames().Put(m.Payload)
		return
	}
	reqID, matchTS, sub, _, err := parseData(m.Payload)
	if err != nil {
		p.prog.fail(err)
		return
	}
	if p.ring != nil {
		p.ring.Record(obsv.Span{
			Name: "data.recv", TS: p.tracer.Now(),
			Flow: m.Trace, Arg: int64(sub.Area()), Detail: m.Tag,
		})
	}
	st.addPiece(reqID, piece{matchTS: matchTS, sub: sub, frame: m.Payload})
}

// acquirePermit reserves one pipeline slot, blocking (and accounting the
// stall) when the queue is full. It returns false when the process aborted.
// Producers call it before taking ec.mu, so a full queue never wedges the
// lock against the sender's TransferDone step.
func (p *Process) acquirePermit(ec *exportConn) bool {
	select {
	case ec.permits <- struct{}{}:
		return true
	default:
	}
	clock := p.prog.fw.opts.Clock
	start := clock.Now()
	select {
	case ec.permits <- struct{}{}:
		stallNS := clock.Since(start).Nanoseconds()
		ec.stall.Add(uint64(stallNS))
		if stallNS > 0 {
			p.ring.Record(obsv.Span{Name: "flt.export-stall", TS: p.ring.Now() - stallNS, Dur: stallNS, Detail: ec.key})
		}
		return true
	case <-p.abort:
		return false
	}
}

func (p *Process) releasePermit(ec *exportConn) { <-ec.permits }

// dispatchLocked hands a job to the connection's data plane: push to the
// sender's queue (never blocks — the caller holds a permit). Called with
// ec.mu held.
func (p *Process) dispatchLocked(ec *exportConn, j exportJob) {
	ec.jobs <- j
	ec.queued.Inc()
	ec.peakDepth.SetMax(int64(len(ec.jobs)))
}

// sender is one connection's data-plane goroutine: it drains the job queue,
// sending queued responses in decision order and fanning matched-data
// transfers out to the importer ranks, then applies the TransferDone
// accounting under the connection lock and releases the job's permit.
func (p *Process) sender(ec *exportConn) {
	for {
		select {
		case j := <-ec.jobs:
			p.runJobAsync(ec, j)
			p.releasePermit(ec)
			if j.drain != nil {
				ec.flushes.Inc()
				close(j.drain)
			}
		case <-p.abort:
			return
		}
	}
}

func (p *Process) runJobAsync(ec *exportConn, j exportJob) {
	for _, r := range j.resps {
		p.sendResponse(ec, r)
	}
	if len(j.sends) == 0 {
		return
	}
	start := p.tracer.Now()
	p.fanOut(ec, j.sends, j.sendFlows)
	if p.ring != nil {
		flow := uint64(0)
		if len(j.sendFlows) > 0 {
			flow = j.sendFlows[0]
		}
		p.ring.Record(obsv.Span{
			Name: "send", TS: start, Dur: p.tracer.Now() - start,
			Flow: flow, Arg: int64(len(j.sends)), Detail: ec.key,
		})
	}
	ec.mu.Lock()
	for _, s := range j.sends {
		ec.mgr.TransferDone(s.MatchTS)
	}
	ec.mu.Unlock()
}

// fanOut transfers matched data objects to the importer ranks along this
// rank's share of the redistribution plan, one worker per destination rank
// up to exportWorkers().
func (p *Process) fanOut(ec *exportConn, sends []buffer.SendItem, flows []uint64) {
	n := len(ec.outgoing)
	if n == 0 {
		return
	}
	workers := exportWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range ec.outgoing {
			p.sendTransfer(ec, &ec.outgoing[i], sends, flows)
		}
		return
	}
	tasks := make(chan int, n)
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range tasks {
				p.sendTransfer(ec, &ec.outgoing[i], sends, flows)
			}
		}()
	}
	wg.Wait()
}

// sendTransfer packs and sends every matched object's piece for one outgoing
// transfer (one destination rank), each straight into a pooled frame.
func (p *Process) sendTransfer(ec *exportConn, tr *decomp.Transfer, sends []buffer.SendItem, flows []uint64) {
	frames := p.d.Frames()
	for si, s := range sends {
		g := decomp.Grid{Block: ec.block, Data: s.Data}
		frame := frames.Get(dataHeaderSize + wire.Float64sSize(tr.Sub.Area()))
		payload, err := appendData(frame[:0], s.ReqIndex, s.MatchTS, &g, tr.Sub)
		if err != nil {
			p.prog.fail(fmt.Errorf("core: %s: %w", p.addr(), err))
			return
		}
		ec.dataSends.Inc()
		var flow uint64
		if si < len(flows) {
			flow = flows[si]
		}
		err = p.d.Send(transport.Message{
			Kind:    transport.KindData,
			Dst:     transport.Proc(ec.cc.Import.Program, tr.To),
			Tag:     ec.key,
			Trace:   flow,
			Payload: payload,
			Pooled:  frames != nil,
		})
		if err != nil {
			if p.checkAbort() != nil {
				return // shutting down; the send failure is a consequence
			}
			p.prog.fail(err)
			return
		}
	}
}

// sendResponse reports one (possibly updated) matching decision to the rep.
func (p *Process) sendResponse(ec *exportConn, r respData) {
	msg := responseMsg{
		Conn: ec.key, ReqID: r.reqID, ReqTS: r.reqTS, Rank: p.rank,
		Result: r.result, MatchTS: r.matchTS, Latest: r.latest,
	}
	err := p.d.Send(transport.Message{
		Kind:    transport.KindResponse,
		Dst:     transport.Rep(p.prog.name),
		Tag:     ec.key,
		Trace:   r.flow,
		Payload: wire.Encode(msg.fields),
	})
	if err != nil {
		if p.checkAbort() != nil {
			return
		}
		p.prog.fail(err)
	}
}

// Export is the collective export operation: it offers a new version of the
// region's distributed data (this process's local block, with simulation
// timestamp ts) to every connection of the region. The framework copies the
// data only when the buffering rules require it; the copy cost is what the
// paper's benchmark measures. Any responses and data transfers the offer
// triggers are queued to the connection's sender goroutine, so Export
// returns to the application's compute phase immediately — unless the
// bounded queue is full, in which case Export blocks (backpressure) and the
// stall is accounted in core.export.stall.ns.
func (p *Process) Export(region string, ts float64, data []float64) error {
	if err := p.checkAbort(); err != nil {
		return err
	}
	def, ok := p.prog.regions[region]
	if !ok {
		return fmt.Errorf("core: %s: export of undefined region %q", p.addr(), region)
	}
	st, connected := p.exps[region]
	if !connected {
		// Low-overhead path: the connection specification has no entries for
		// this exported region, so nothing is ever buffered or transferred.
		if want := def.layout.Block(p.rank).Area(); len(data) != want {
			return fmt.Errorf("core: %s: export %q with %d values, block has %d", p.addr(), region, len(data), want)
		}
		return nil
	}
	if want := st.block.Area(); len(data) != want {
		return fmt.Errorf("core: %s: export %q with %d values, block has %d", p.addr(), region, len(data), want)
	}

	for _, ec := range st.conns {
		if !p.acquirePermit(ec) {
			return p.abortErr()
		}
		start := p.tracer.Now()
		ec.mu.Lock()
		res, err := ec.mgr.Offer(ts, data)
		if err != nil {
			ec.mu.Unlock()
			p.releasePermit(ec)
			p.prog.fail(err)
			return err
		}
		if len(res.Resolutions) == 0 && len(res.Sends) == 0 {
			ec.mu.Unlock()
			p.releasePermit(ec)
			p.recordExport(ec, start, nil)
			continue
		}
		job := jobFromOffer(res.Resolutions, res.Sends)
		p.attachFlows(ec, &job)
		p.dispatchLocked(ec, job)
		ec.mu.Unlock()
		p.recordExport(ec, start, &job)
	}
	return nil
}

// recordExport records an Export offer's span (one nil check when tracing
// is off). The flow is the first resolved request's, when any.
func (p *Process) recordExport(ec *exportConn, start int64, j *exportJob) {
	if p.ring == nil {
		return
	}
	sp := obsv.Span{Name: "export", TS: start, Dur: p.tracer.Now() - start, Detail: ec.key}
	if j != nil {
		sp.Arg = int64(len(j.sends))
		if len(j.resps) > 0 {
			sp.Flow = j.resps[0].flow
		} else if len(j.sendFlows) > 0 {
			sp.Flow = j.sendFlows[0]
		}
	}
	p.ring.Record(sp)
}

// Flush is the drain barrier of the asynchronous data plane: it blocks until
// every resolution and data transfer queued so far on the region's export
// pipelines has been sent and its TransferDone accounting applied.
func (p *Process) Flush(region string) error {
	if err := p.checkAbort(); err != nil {
		return err
	}
	if _, ok := p.prog.regions[region]; !ok {
		return fmt.Errorf("core: %s: flush of undefined region %q", p.addr(), region)
	}
	st, connected := p.exps[region]
	if !connected {
		return nil
	}
	drains := make([]chan struct{}, 0, len(st.conns))
	for _, ec := range st.conns {
		if !p.acquirePermit(ec) {
			return p.abortErr()
		}
		d := make(chan struct{})
		ec.mu.Lock()
		p.dispatchLocked(ec, exportJob{drain: d})
		ec.mu.Unlock()
		drains = append(drains, d)
	}
	for _, d := range drains {
		select {
		case <-d:
		case <-p.abort:
			return p.abortErr()
		}
	}
	return nil
}

// FinishRegion is the collective end-of-stream declaration for an exported
// region: this process will export no further versions. Pending import
// requests resolve immediately (MATCH on the best buffered candidate, or NO
// MATCH), and later requests resolve against the buffered versions — so an
// importer that outlives the exporter gets answers instead of waiting
// forever. Like Export, it must be called by every process of the program
// (Property 1). FinishRegion drains the region's pipelines before returning
// (the Flush barrier), so all queued transfers are on the wire and accounted.
// Exporting the region after FinishRegion is an error.
func (p *Process) FinishRegion(region string) error {
	if err := p.checkAbort(); err != nil {
		return err
	}
	if _, ok := p.prog.regions[region]; !ok {
		return fmt.Errorf("core: %s: finish of undefined region %q", p.addr(), region)
	}
	st, connected := p.exps[region]
	if !connected {
		return nil // low-overhead path: nothing to resolve
	}
	for _, ec := range st.conns {
		if !p.acquirePermit(ec) {
			return p.abortErr()
		}
		ec.mu.Lock()
		res, sends, err := ec.mgr.Finish()
		if err != nil {
			ec.mu.Unlock()
			p.releasePermit(ec)
			return err
		}
		if len(res) > 0 || len(sends) > 0 {
			job := jobFromOffer(res, sends)
			p.attachFlows(ec, &job)
			p.dispatchLocked(ec, job)
		} else {
			p.releasePermit(ec)
		}
		ec.mu.Unlock()
	}
	return p.Flush(region)
}

// ImportResult reports the outcome of an Import call.
type ImportResult struct {
	// Matched is false when the collective answer was NO MATCH; dst is then
	// untouched.
	Matched bool
	// MatchTS is the matched export timestamp when Matched.
	MatchTS float64
}

// Import is the collective import operation: it requests the region's data
// at timestamp ts and, on a match, fills dst (this process's local block)
// with the matched version.
func (p *Process) Import(region string, ts float64, dst []float64) (ImportResult, error) {
	if err := p.checkAbort(); err != nil {
		return ImportResult{}, err
	}
	st, ok := p.imps[region]
	if !ok {
		return ImportResult{}, fmt.Errorf("core: %s: import of unconnected region %q (no connection in the coupling configuration)", p.addr(), region)
	}
	if want := st.block.Area(); len(dst) != want {
		return ImportResult{}, fmt.Errorf("core: %s: import %q into %d values, block has %d", p.addr(), region, len(dst), want)
	}
	reqID := st.nextCall
	st.nextCall++
	if p.prog.rec != nil {
		st.issued = append(st.issued, ts)
	}
	impStart := p.tracer.Now()

	call := importCallMsg{Region: region, ReqTS: ts}
	err := p.d.Send(transport.Message{
		Kind:    transport.KindImportCall,
		Dst:     transport.Rep(p.prog.name),
		Tag:     region,
		Payload: wire.Encode(call.fields),
	})
	if err != nil {
		return ImportResult{}, err
	}

	timeout := p.prog.fw.opts.Timeout
	timer := p.prog.fw.opts.Clock.NewTimer(timeout)
	defer timer.Stop()
	var ans answerMsg
	select {
	case ans = <-st.answers:
	case <-p.abort:
		return ImportResult{}, p.abortErr()
	case <-timer.C():
		return ImportResult{}, fmt.Errorf("core: %s: import %q@%g: no answer from %s within %v: %w",
			p.addr(), region, ts, transport.Rep(st.cc.Export.Program), timeout, transport.ErrTimeout)
	}
	if ans.ReqID != reqID || ans.ReqTS != ts {
		err := fmt.Errorf("core: %s: answer mismatch: got req %d@%g, want %d@%g (collective import order violated?)",
			p.addr(), ans.ReqID, ans.ReqTS, reqID, ts)
		p.prog.fail(err)
		return ImportResult{}, err
	}
	if ans.Result != match.Match {
		st.completed(reqID)
		p.recordImport(impStart, ans, region)
		return ImportResult{Matched: false}, nil
	}

	// Collect this rank's pieces of the matched distributed object, decoding
	// each into dst and handing its frame back. Only planned sub-rectangles
	// count, each once: a recovery resend repeating a piece is skipped, and
	// one the plan does not name (stray or forged) fails the import rather
	// than stand in for a missing one.
	need := len(st.incoming)
	if len(st.have) != need {
		st.have = make([]bool, need)
	}
	clear(st.have)
	g := decomp.Grid{Block: st.block, Data: dst}
	got := 0
	for got < need {
		st.pmu.Lock()
		ps := st.pieces[reqID]
		delete(st.pieces, reqID)
		st.pmu.Unlock()
		for _, pc := range ps {
			var err error
			switch k := slices.IndexFunc(st.incoming, func(tr decomp.Transfer) bool { return tr.Sub == pc.sub }); {
			case k < 0:
				err = fmt.Errorf("core: %s: req %d delivered %v, no piece of this rank's plan",
					p.addr(), reqID, pc.sub)
			case st.have[k]:
			case pc.matchTS != ans.MatchTS:
				err = fmt.Errorf("core: %s: piece for req %d has timestamp %g, answer said %g",
					p.addr(), reqID, pc.matchTS, ans.MatchTS)
			default:
				err = g.UnpackFrom(pc.sub, pc.frame[dataHeaderSize:])
				st.have[k] = true
				got++
			}
			st.frames.Put(pc.frame)
			if err != nil {
				p.prog.fail(err)
				return ImportResult{}, err
			}
		}
		if got >= need {
			break
		}
		select {
		case <-st.signal:
		case <-p.abort:
			return ImportResult{}, p.abortErr()
		case <-timer.C():
			return ImportResult{}, fmt.Errorf("core: %s: import %q@%g: %d of %d data pieces from %s within %v: %w",
				p.addr(), region, ts, got, need, st.cc.Export.Program, timeout, transport.ErrTimeout)
		}
	}
	st.completed(reqID)
	p.recordImport(impStart, ans, region)
	return ImportResult{Matched: true, MatchTS: ans.MatchTS}, nil
}

// recordImport records an Import call's span, linked by the answer's flow ID
// to the request/forward/answer spans on the other processes.
func (p *Process) recordImport(start int64, ans answerMsg, region string) {
	if p.ring == nil {
		return
	}
	p.ring.Record(obsv.Span{
		Name: "import", TS: start, Dur: p.tracer.Now() - start,
		Flow: ans.flow, Arg: int64(ans.ReqID), Detail: region,
	})
}

// evictPeer frees the buffered export versions of every connection whose
// importer is the dead program, returning how many versions were dropped.
// Those versions exist only to answer that importer's future requests, which
// will never come; a long-running exporter would otherwise hold (or keep
// growing) the buffers until Close.
func (p *Process) evictPeer(peer string) int {
	n := 0
	for _, st := range p.exps {
		for _, ec := range st.conns {
			if ec.cc.Import.Program == peer {
				ec.mu.Lock()
				n += ec.mgr.Evict()
				ec.mu.Unlock()
			}
		}
	}
	return n
}

func (p *Process) abortErr() error {
	if err := p.prog.err(); err != nil {
		return err
	}
	return fmt.Errorf("core: %s aborted", p.addr())
}
