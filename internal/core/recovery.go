package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obsv"
	"repro/internal/recover"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RecoveryOptions enables collective-sequence checkpointing and crash
// recovery. With it set, every hosted program:
//
//   - retains matched export versions until the importing peer acknowledges a
//     checkpoint past them (so a restarted importer can be re-fed),
//   - accepts replayed requests, duplicate answers and stale data idempotently
//     instead of treating them as protocol violations,
//   - suspends instead of failing when a peer is declared down (the rejoin
//     handshake revives it), and
//   - on Restore, rebuilds its buffer managers, matcher histories and import
//     progress from the program's last checkpoint and announces a rejoin to
//     every peer rep.
//
// Checkpoints are taken by the application: every rank calls
// Process.Checkpoint with the same sequence number at the same point of its
// collective operation order (Property 1 makes that a consistent cut). All
// coupled participants should enable recovery, or a restarted peer cannot be
// resynced.
type RecoveryOptions struct {
	// Store persists one checkpoint per program. Required.
	Store recover.Store
	// Restore loads the program's latest checkpoint at construction; the
	// driver resumes from Program.RestoredSeq.
	Restore bool
	// Every is a driver hint — checkpoint every Every collective steps. The
	// framework does not act on it (checkpoints are explicit); it is carried
	// here so flag plumbing has one home (Framework.CheckpointEvery).
	Every int
}

// progRecovery is one hosted program's recovery state and instruments.
type progRecovery struct {
	store recover.Store
	// epoch counts this program's restarts: 0 for a fresh start, checkpoint
	// epoch + 1 after a restore. It namespaces transport sessions.
	epoch uint64
	// restored is the checkpoint this incarnation was rebuilt from (nil on a
	// fresh start).
	restored *recover.Checkpoint

	mu      sync.Mutex
	pending map[uint64]*pendingCkpt

	ckptNS   *obsv.Histogram // recover.checkpoint.ns: assemble+encode+save time
	rejoins  *obsv.Counter   // recover.rejoins: peer rejoin handshakes processed
	replays  *obsv.Counter   // recover.versions_replayed: matched versions re-sent
	suspends *obsv.Counter   // recover.suspends: peer-down events absorbed
	stale    *obsv.Counter   // recover.stale.responses: responses for unknown requests dropped
}

// pendingCkpt collects the per-rank states of one in-progress checkpoint.
type pendingCkpt struct {
	procs []recover.ProcState
	seen  []bool
	got   int
}

func newProgRecovery(opts *RecoveryOptions, reg *obsv.Registry, program string) (*progRecovery, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("core: RecoveryOptions for %s without a Store", program)
	}
	rec := &progRecovery{
		store:   opts.Store,
		pending: make(map[uint64]*pendingCkpt),
	}
	l := obsv.L("program", program)
	rec.ckptNS = reg.Histogram("recover.checkpoint.ns", l)
	rec.rejoins = reg.Counter("recover.rejoins", l)
	rec.replays = reg.Counter("recover.versions_replayed", l)
	rec.suspends = reg.Counter("recover.suspends", l)
	rec.stale = reg.Counter("recover.stale.responses", l)
	if opts.Restore {
		ck, err := opts.Store.Load(program)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			rec.restored = ck
			rec.epoch = ck.Epoch + 1
		}
	}
	return rec, nil
}

// procState returns the restored checkpoint's state for one rank (nil when
// not restored or the rank is absent).
func (rec *progRecovery) procState(rank int) *recover.ProcState {
	if rec == nil || rec.restored == nil {
		return nil
	}
	for i := range rec.restored.Procs {
		if rec.restored.Procs[i].Rank == rank {
			return &rec.restored.Procs[i]
		}
	}
	return nil
}

// RestoredSeq returns the collective sequence number of the checkpoint this
// program was restored from; ok is false on a fresh start (drivers then begin
// at their usual first step).
func (p *Program) RestoredSeq() (seq uint64, ok bool) {
	if p.rec == nil || p.rec.restored == nil {
		return 0, false
	}
	return p.rec.restored.Seq, true
}

// Epoch returns the program's restart epoch: 0 for a fresh start, incremented
// by every restore. The transport session carrying this program must be built
// with the same epoch (transport.ReliableConfig.SessionEpoch,
// transport.TCPNetwork.SessionEpoch) so peers distinguish its new session
// from the dead one.
func (p *Program) Epoch() uint64 {
	if p.rec == nil {
		return 0
	}
	return p.rec.epoch
}

// CheckpointEvery returns the RecoveryOptions.Every driver hint (0 when
// recovery is off or no interval was configured).
func (f *Framework) CheckpointEvery() int {
	if f.opts.Recovery == nil {
		return 0
	}
	return f.opts.Recovery.Every
}

// Checkpoint is the collective checkpoint operation: every rank of the
// program calls it with the same application-chosen sequence number at the
// same point of its Export/Import order. Each rank snapshots its share of the
// framework state (export buffer managers, matcher histories, import
// progress); the last rank to contribute encodes and saves the assembled
// program checkpoint, then acknowledges it to the exporting peers so they can
// release versions retained for resync. The call does not block on the other
// ranks: when it returns on the last rank, the checkpoint is durable.
func (p *Process) Checkpoint(seq uint64) error {
	if p.prog.rec == nil {
		return fmt.Errorf("core: %s: Checkpoint without Options.Recovery", p.addr())
	}
	if err := p.checkAbort(); err != nil {
		return err
	}
	ps := recover.ProcState{
		Rank:    p.rank,
		Exports: make(map[string]buffer.ManagerState),
		Imports: make(map[string]recover.ImportState),
	}
	for _, st := range p.exps {
		for _, ec := range st.conns {
			ec.mu.Lock()
			ps.Exports[ec.key] = ec.mgr.State()
			ec.mu.Unlock()
		}
	}
	for _, st := range p.imps {
		ps.Imports[st.key] = recover.ImportState{Issued: append([]float64(nil), st.issued...)}
	}
	return p.prog.contributeCkpt(p, seq, ps)
}

// contributeCkpt files one rank's snapshot; the completing rank saves the
// checkpoint and sends the release acks.
func (p *Program) contributeCkpt(proc *Process, seq uint64, ps recover.ProcState) error {
	rec := p.rec
	clock := p.fw.opts.Clock
	start := clock.Now()
	rec.mu.Lock()
	pc := rec.pending[seq]
	if pc == nil {
		pc = &pendingCkpt{procs: make([]recover.ProcState, p.n), seen: make([]bool, p.n)}
		rec.pending[seq] = pc
	}
	if pc.seen[proc.rank] {
		rec.mu.Unlock()
		return fmt.Errorf("core: %s checkpointed sequence %d twice (Property 1 violation)", proc.addr(), seq)
	}
	pc.seen[proc.rank] = true
	pc.procs[proc.rank] = ps
	pc.got++
	done := pc.got == p.n
	if done {
		delete(rec.pending, seq)
	}
	rec.mu.Unlock()
	if !done {
		return nil
	}
	ck := &recover.Checkpoint{Program: p.name, Epoch: rec.epoch, Seq: seq, Procs: pc.procs}
	if err := rec.store.Save(ck); err != nil {
		err = fmt.Errorf("core: checkpoint %s@%d: %w", p.name, seq, err)
		p.fail(err)
		return err
	}
	rec.ckptNS.Observe(clock.Since(start).Nanoseconds())
	proc.ring.Record(obsv.Span{Name: "flt.checkpoint", TS: proc.ring.Now(), Arg: int64(seq), Detail: fmt.Sprintf("epoch=%d", rec.epoch)})
	// Acknowledge to every exporting peer: requests below the checkpointed
	// import count will never be replayed, so the retained versions answering
	// them can be freed. (Property 1: the count is identical across ranks.)
	for key, ims := range ps.Imports {
		conn, ok := p.rep.impConns[key]
		if !ok {
			continue
		}
		rm := releaseMsg{Conn: key, Through: len(ims.Issued)}
		err := proc.d.Send(transport.Message{
			Kind:    transport.KindControl,
			Dst:     transport.Rep(conn.Export.Program),
			Tag:     releaseTag,
			Payload: wire.Encode(rm.fields),
		})
		if err != nil && proc.checkAbort() == nil {
			p.fail(err)
			return err
		}
	}
	return nil
}

// announceRejoin introduces a restored program to its peers: the restart
// epoch plus per-connection resume points. Sent from Framework.Start (and
// re-sent with the layout announcements until the handshake completes); peers
// deduplicate by epoch.
func (r *repRunner) announceRejoin() error {
	rec := r.prog.rec
	resume := make(map[string]int)
	for _, proc := range r.prog.procs {
		for _, st := range proc.exps {
			for _, ec := range st.conns {
				ec.mu.Lock()
				n := ec.mgr.NumRequests()
				ec.mu.Unlock()
				if cur, ok := resume[ec.key]; !ok || n < cur {
					resume[ec.key] = n
				}
			}
		}
	}
	rm := rejoinMsg{Epoch: rec.epoch}
	for key, n := range resume {
		rm.Exports = append(rm.Exports, resumePoint{Conn: key, ReqID: n})
	}
	slices.SortFunc(rm.Exports, func(a, b resumePoint) int { return strings.Compare(a.Conn, b.Conn) })
	r.ring.Record(obsv.Span{Name: "flt.rejoin", TS: r.ring.Now(), Arg: int64(rec.epoch), Detail: "announce"})
	payload := wire.Encode(rm.fields)
	for _, peer := range r.prog.fw.peerPrograms(r.prog.name) {
		err := r.d.Send(transport.Message{
			Kind:    transport.KindControl,
			Dst:     transport.Rep(peer),
			Tag:     rejoinTag,
			Payload: payload,
		})
		if err != nil && !errors.Is(err, transport.ErrUnknownAddr) {
			return err
		}
	}
	return nil
}

// handleRejoin processes a restarted peer's re-introduction: reset the
// transport session toward it (discarding the dead session's unacked
// messages and opening the new epoch), revive the failure detector's view,
// and — for connections importing from the rejoined exporter — re-send every
// request from min(the exporter's resume id, our delivery watermark), so its
// restored ranks re-answer what they lost and re-feed the data. Repeated
// announcements of the same epoch are deduplicated.
func (r *repRunner) handleRejoin(m transport.Message) {
	r.touchPeer(m)
	var rm rejoinMsg
	if !r.prog.decode(m, rm.fields) {
		return
	}
	if r.prog.rec == nil {
		// Peer recovers, we don't: treat its new incarnation like a fresh
		// session anyway so the coupling has a chance to continue.
		resetPeerSessions(r.prog.fw.net, m.Src.Program, uint32(rm.Epoch))
		return
	}
	peer := m.Src.Program
	if rm.Epoch <= r.peerEpochs[peer] {
		return // duplicate announcement of an epoch already handled
	}
	r.peerEpochs[peer] = rm.Epoch
	r.prog.rec.rejoins.Inc()
	r.ring.Record(obsv.Span{Name: "flt.rejoin", TS: r.ring.Now(), Arg: int64(rm.Epoch), Detail: peer})
	r.fd.reset(peer)
	resetPeerSessions(r.prog.fw.net, peer, uint32(rm.Epoch))
	for key, conn := range r.impConns {
		if conn.Export.Program != peer {
			continue
		}
		is := r.impSeq[conn.Import.Region]
		floor := is.delivered
		for _, e := range rm.Exports {
			if e.Conn == key && e.ReqID < floor {
				floor = e.ReqID
			}
		}
		for reqID := floor; reqID < len(is.seq); reqID++ {
			var flow uint64
			if reqID < len(is.flows) {
				flow = is.flows[reqID]
			}
			req := requestMsg{Conn: key, ReqID: reqID, ReqTS: is.seq[reqID]}
			err := r.d.Send(transport.Message{
				Kind:    transport.KindRequest,
				Dst:     transport.Rep(peer),
				Tag:     key,
				Payload: wire.Encode(req.fields),
				Trace:   flow,
			})
			if err != nil {
				r.prog.fail(err)
				return
			}
		}
	}
}

// resetPeerSessions resets the session state the stack's reliable layer (if
// any) holds toward the named program.
func resetPeerSessions(n transport.Network, program string, epoch uint32) {
	if rn := transport.FindLayer[*transport.ReliableNetwork](n); rn != nil {
		rn.ResetPeer(program, epoch)
	}
}
