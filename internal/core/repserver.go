package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/rep"
	"repro/internal/transport"
	"repro/internal/wire"
)

// repRunner is a program's representative process: the low-overhead control
// gateway of Section 4. On the exporting side it fans import requests out to
// the program's processes, aggregates their responses (package rep), answers
// the importing program's rep, and — with buddy-help enabled — relays the
// final answer to its own still-PENDING processes. On the importing side it
// serializes the program's collective import calls into one request stream
// per connection and fans answers back out.
type repRunner struct {
	prog   *Program
	d      *transport.Dispatcher
	tracer *obsv.Tracer // nil when tracing is off
	ring   *obsv.Ring   // the rep's span lane; nil when tracing is off

	// Exporter-side state, by connection key.
	expConns map[string]config.Connection
	aggs     map[string]map[int]*pendingReq

	// Importer-side state.
	impConns map[string]config.Connection // by connection key
	impSeq   map[string]*importSeq        // by import region name

	// peerEpochs records the highest rejoin epoch processed per peer program,
	// deduplicating re-announced rejoin handshakes.
	peerEpochs map[string]uint64

	// Failure detection (active when Options.Heartbeat > 0).
	fd     *failureDetector
	hbStop chan struct{}
	hbOnce sync.Once
}

// pendingReq is one aggregating import request plus the observability flow
// it rides on (the trace ID minted by the importer's rep, zero when off).
// Once the collective answer forms it is kept in final, so a crashed importer
// replaying the request is re-answered without re-aggregating. first is the
// framework-clock time of its first response (read only under Options.Diag).
type pendingReq struct {
	agg   *rep.Request
	flow  uint64
	final *answerMsg
	first time.Time
}

// importSeq tracks the collective import-call sequence of one region. flows
// holds the trace ID minted per request (parallel to seq; only when tracing).
// delivered is the number of answers fanned out to the processes — the
// watermark that deduplicates replayed answers after a peer restart.
type importSeq struct {
	conn      config.Connection
	key       string
	seq       []float64
	perRank   []int
	flows     []uint64
	delivered int
}

func newRepRunner(p *Program, d *transport.Dispatcher) *repRunner {
	return &repRunner{
		prog:       p,
		d:          d,
		tracer:     p.fw.tracer,
		ring:       p.fw.tracer.Ring(p.name, -1),
		expConns:   make(map[string]config.Connection),
		aggs:       make(map[string]map[int]*pendingReq),
		impConns:   make(map[string]config.Connection),
		impSeq:     make(map[string]*importSeq),
		peerEpochs: make(map[string]uint64),
		fd:         newFailureDetector(p.fw.opts.Heartbeat, p.fw.opts.Clock),
		hbStop:     make(chan struct{}),
	}
}

func (r *repRunner) start() {
	for _, conn := range r.prog.fw.cfg.Connections {
		key := connKey(conn.Export.String(), conn.Import.String())
		if conn.Export.Program == r.prog.name {
			r.expConns[key] = conn
			r.aggs[key] = make(map[int]*pendingReq)
		}
		if conn.Import.Program == r.prog.name {
			r.impConns[key] = conn
			is := &importSeq{
				conn:    conn,
				key:     key,
				perRank: make([]int, r.prog.n),
			}
			// After a restore, the request stream resumes where the checkpoint
			// cut it: the checkpointed issue sequence is re-seeded (identical
			// across ranks — Property 1 — so rank 0's copy is THE sequence)
			// and every checkpointed answer counts as delivered.
			if ps := r.prog.rec.procState(0); ps != nil {
				if ims, ok := ps.Imports[key]; ok {
					is.seq = append([]float64(nil), ims.Issued...)
					for i := range is.perRank {
						is.perRank[i] = len(is.seq)
					}
					is.flows = make([]uint64, len(is.seq))
					is.delivered = len(is.seq)
				}
			}
			r.impSeq[conn.Import.Region] = is
		}
	}
	if hb := r.prog.fw.opts.Heartbeat; hb > 0 {
		go r.heartbeatLoop(hb, r.prog.fw.peerPrograms(r.prog.name))
	}
	go r.run()
}

func (r *repRunner) close() {
	r.hbOnce.Do(func() { close(r.hbStop) })
	r.d.Close()
}

// sendLayout announces the layout of this program's region of connection
// key to the peer program's rep: Framework.Start's announcements, and the
// replies of handleLayout.
func (r *repRunner) sendLayout(key, region, peer string, isReply bool) error {
	def, ok := r.prog.regions[region]
	if !ok {
		return fmt.Errorf("core: program %s never defined region %q named in the coupling configuration",
			r.prog.name, region)
	}
	spec, err := decomp.SpecOf(def.layout)
	if err != nil {
		return err
	}
	lm := layoutMsg{Conn: key, Remote: spec, IsReply: isReply}
	return r.d.Send(transport.Message{
		Kind: transport.KindLayout, Dst: transport.Rep(peer), Tag: key, Payload: wire.Encode(lm.fields),
	})
}

// run is the rep's one loop: every kind arrives on the merged queue in the
// order its sender sent it.
func (r *repRunner) run() {
	for {
		m, err := r.d.RecvAny()
		if err != nil {
			return
		}
		switch m.Kind {
		case transport.KindControl:
			r.handleControl(m)
		case transport.KindImportCall:
			r.handleImportCall(m)
		case transport.KindResponse:
			r.handleResponse(m)
		case transport.KindRequest:
			r.handleRequest(m)
		case transport.KindAnswer:
			r.handleAnswer(m)
		case transport.KindLayout:
			r.handleLayout(m)
		}
	}
}

// toProcs fans a control message out to every process of the program,
// piggybacking the trace ID so the receiving processes join the flow.
func (r *repRunner) toProcs(tag string, payload []byte, trace uint64) {
	for rank := 0; rank < r.prog.n; rank++ {
		err := r.d.Send(transport.Message{
			Kind:    transport.KindControl,
			Dst:     transport.Proc(r.prog.name, rank),
			Tag:     tag,
			Payload: payload,
			Trace:   trace,
		})
		if err != nil {
			r.prog.fail(err)
			return
		}
	}
}

// handleLayout forwards a peer rep's layout announcement to the processes
// and replies with this side's layout. The reply makes the handshake mutual:
// a peer that joined after our initial announcement (distributed mode) still
// learns our layout, because receiving its announcement proves it is
// reachable now. Every non-reply announcement is answered — a peer that
// restarts after a crash re-announces, and suppressing the reply would
// strand its handshake — while replies are never answered (no loops);
// processes deduplicate the repeats.
func (r *repRunner) handleLayout(m transport.Message) {
	r.touchPeer(m)
	r.toProcs("layout", m.Payload, 0)
	var lm layoutMsg
	if !r.prog.decode(m, lm.fields) {
		return
	}
	if lm.IsReply {
		return
	}
	var own, peer config.Endpoint
	if c, ok := r.expConns[lm.Conn]; ok {
		own, peer = c.Export, c.Import
	} else if c, ok := r.impConns[lm.Conn]; ok {
		own, peer = c.Import, c.Export
	} else {
		r.prog.fail(fmt.Errorf("core: %s got layout for unknown connection %q", r.prog.name, lm.Conn))
		return
	}
	if err := r.sendLayout(lm.Conn, own.Region, peer.Program, true); err != nil {
		r.prog.fail(err)
	}
}

// handleImportCall serializes the program's collective import calls: the
// first process to request a new timestamp triggers the request to the
// exporting program's rep; later processes are validated against the
// sequence (Property 1 on the importer side).
func (r *repRunner) handleImportCall(m transport.Message) {
	var cm importCallMsg
	if !r.prog.decode(m, cm.fields) {
		return
	}
	r.prog.proto.importCalls.Add(1)
	is, ok := r.impSeq[cm.Region]
	if !ok {
		r.prog.fail(fmt.Errorf("core: %s imports region %q, which no connection feeds", r.prog.name, cm.Region))
		return
	}
	rank := m.Src.Rank
	if rank < 0 || rank >= r.prog.n {
		r.prog.fail(fmt.Errorf("core: import call from unexpected source %s", m.Src))
		return
	}
	idx := is.perRank[rank]
	if idx < len(is.seq) {
		if is.seq[idx] != cm.ReqTS {
			r.prog.fail(fmt.Errorf(
				"core: Property 1 violation in importer %s: rank %d requested %s@%g as call #%d, others requested @%g",
				r.prog.name, rank, cm.Region, cm.ReqTS, idx, is.seq[idx]))
			return
		}
		is.perRank[rank]++
		return
	}
	// First arrival of a new collective import: validate monotonicity and
	// forward to the exporter's rep.
	if len(is.seq) > 0 && cm.ReqTS <= is.seq[len(is.seq)-1] {
		r.prog.fail(fmt.Errorf("core: importer %s: request timestamps must increase (%g after %g)",
			r.prog.name, cm.ReqTS, is.seq[len(is.seq)-1]))
		return
	}
	is.seq = append(is.seq, cm.ReqTS)
	is.perRank[rank]++
	reqID := len(is.seq) - 1
	// Mint the flow ID the whole collective request will travel under: it
	// rides the wire as Message.Trace and stitches the importer's request,
	// the exporter's forwards/resolutions and the answer into one arrow.
	flow := r.tracer.NewSpanID()
	is.flows = append(is.flows, flow)
	start := r.tracer.Now()
	req := requestMsg{Conn: is.key, ReqID: reqID, ReqTS: cm.ReqTS}
	err := r.d.Send(transport.Message{
		Kind:    transport.KindRequest,
		Dst:     transport.Rep(is.conn.Export.Program),
		Tag:     is.key,
		Payload: wire.Encode(req.fields),
		Trace:   flow,
	})
	if err != nil {
		r.prog.fail(err)
		return
	}
	r.ring.Record(obsv.Span{
		Name: "request", TS: start, Dur: r.tracer.Now() - start,
		Flow: flow, Arg: int64(reqID), Detail: is.key,
	})
}

// handleRequest (exporter side) registers an aggregator for the request and
// forwards it to all processes — the rep's steps (1) of Section 4.
func (r *repRunner) handleRequest(m transport.Message) {
	r.touchPeer(m)
	var rm requestMsg
	if !r.prog.decode(m, rm.fields) {
		return
	}
	conns := r.aggs[rm.Conn]
	if conns == nil {
		r.prog.fail(fmt.Errorf("core: %s got request for unknown connection %q", r.prog.name, rm.Conn))
		return
	}
	if pr, dup := conns[rm.ReqID]; dup {
		if r.prog.rec == nil {
			r.prog.fail(fmt.Errorf("core: %s got duplicate request %d on %q", r.prog.name, rm.ReqID, rm.Conn))
			return
		}
		// A restarted importer replaying its request stream. When the
		// collective answer already formed, re-answer from the stored final
		// and have the processes re-send the matched data; when aggregation
		// is still in progress, the answer will flow when it completes.
		if pr.final != nil {
			r.prog.proto.answersSent.Add(1)
			if err := r.d.Send(transport.Message{
				Kind:    transport.KindAnswer,
				Dst:     transport.Rep(r.expConns[rm.Conn].Import.Program),
				Tag:     rm.Conn,
				Payload: wire.Encode(pr.final.fields),
				Trace:   pr.flow,
			}); err != nil {
				r.prog.fail(err)
				return
			}
			if pr.final.Result == match.Match {
				r.toProcs(resendTag, m.Payload, pr.flow)
			}
		}
		return
	}
	start := r.tracer.Now()
	conns[rm.ReqID] = &pendingReq{agg: rep.NewRequest(rm.ReqTS, r.prog.n), flow: m.Trace}
	r.prog.proto.requestsForwarded.Add(uint64(r.prog.n))
	r.toProcs("forward", m.Payload, m.Trace)
	r.ring.Record(obsv.Span{
		Name: "forward", TS: start, Dur: r.tracer.Now() - start,
		Flow: m.Trace, Arg: int64(rm.ReqID), Detail: rm.Conn,
	})
}

// handleResponse (exporter side) aggregates one process response; when the
// final collective answer forms, it is sent to the importing program's rep
// and — the buddy-help optimization — to the still-PENDING local processes.
// Under Options.Diag the answer's laggard is noted on the program's
// straggler board, weighted by how long the answer waited on it.
func (r *repRunner) handleResponse(m transport.Message) {
	var sm responseMsg
	if !r.prog.decode(m, sm.fields) {
		return
	}
	conns := r.aggs[sm.Conn]
	if conns == nil {
		r.prog.fail(fmt.Errorf("core: %s got response for unknown connection %q", r.prog.name, sm.Conn))
		return
	}
	entry, ok := conns[sm.ReqID]
	if !ok {
		if r.prog.rec != nil {
			// A restored process re-resolving a request this restarted rep has
			// not been re-sent (yet, or ever — the importer may have released
			// it). The importer's replay re-registers whatever still matters.
			r.prog.rec.stale.Inc()
			return
		}
		r.prog.fail(fmt.Errorf("core: %s got response for unknown request %d on %q", r.prog.name, sm.ReqID, sm.Conn))
		return
	}
	r.prog.proto.responses.Add(1)
	board := r.prog.board
	if board != nil && entry.first.IsZero() {
		entry.first = r.prog.fw.opts.Clock.Now()
	}
	ans, err := entry.agg.Add(rep.Response{
		Rank: sm.Rank, Result: sm.Result, MatchTS: sm.MatchTS, Latest: sm.Latest,
	})
	if err != nil {
		r.prog.fail(err)
		return
	}
	if ans == nil {
		return
	}
	if board != nil {
		board.Note(ans.Laggard, r.prog.fw.opts.Clock.Since(entry.first).Nanoseconds())
	}
	start := r.tracer.Now()
	conn := r.expConns[sm.Conn]
	final := answerMsg{
		Conn: sm.Conn, ReqID: sm.ReqID, ReqTS: sm.ReqTS,
		Result: ans.Result, MatchTS: ans.MatchTS,
	}
	entry.final = &final
	payload := wire.Encode(final.fields)
	r.prog.proto.answersSent.Add(1)
	if err := r.d.Send(transport.Message{
		Kind:    transport.KindAnswer,
		Dst:     transport.Rep(conn.Import.Program),
		Tag:     sm.Conn,
		Payload: payload,
		Trace:   entry.flow,
	}); err != nil {
		r.prog.fail(err)
		return
	}
	if r.prog.fw.opts.BuddyHelp {
		r.prog.proto.buddy.Add(uint64(len(ans.BuddyRanks)))
		for _, rank := range ans.BuddyRanks {
			if err := r.d.Send(transport.Message{
				Kind:    transport.KindControl,
				Dst:     transport.Proc(r.prog.name, rank),
				Tag:     "buddy",
				Payload: payload,
				Trace:   entry.flow,
			}); err != nil {
				r.prog.fail(err)
				return
			}
		}
	}
	r.ring.Record(obsv.Span{
		Name: "answer", TS: start, Dur: r.tracer.Now() - start,
		Flow: entry.flow, Arg: int64(sm.ReqID), Detail: ans.Result.String(),
	})
}

// handleAnswer (importer side) fans the exporter rep's final answer out to
// the program's processes.
func (r *repRunner) handleAnswer(m transport.Message) {
	r.touchPeer(m)
	var am answerMsg
	if !r.prog.decode(m, am.fields) {
		return
	}
	conn, ok := r.impConns[am.Conn]
	if !ok {
		r.prog.fail(fmt.Errorf("core: %s got answer for unknown connection %q", r.prog.name, am.Conn))
		return
	}
	if am.Result != match.Match && am.Result != match.NoMatch {
		r.prog.fail(fmt.Errorf("core: %s got non-final answer %v", r.prog.name, am.Result))
		return
	}
	is := r.impSeq[conn.Import.Region]
	if am.ReqID < is.delivered {
		// Replayed answer for a request whose original answer was already
		// fanned out (recovery re-sends overlap the delivery watermark).
		return
	}
	is.delivered = am.ReqID + 1
	r.prog.proto.answersDelivered.Add(uint64(r.prog.n))
	start := r.tracer.Now()
	r.toProcs("answer", m.Payload, m.Trace)
	r.ring.Record(obsv.Span{
		Name: "answer.deliver", TS: start, Dur: r.tracer.Now() - start,
		Flow: m.Trace, Arg: int64(am.ReqID), Detail: am.Conn,
	})
}
