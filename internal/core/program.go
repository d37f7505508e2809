package core

import (
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/obsv"
	"repro/internal/obsv/diag"
	"repro/internal/transport"
)

// regionDef is a program-level region definition: the distributed layout of
// one named 2-D array the program exports or imports.
type regionDef struct {
	name   string
	layout decomp.Layout
}

// Program is one parallel simulation component: n processes plus a
// representative.
type Program struct {
	fw   *Framework
	name string
	n    int

	regions map[string]regionDef
	rep     *repRunner
	procs   []*Process
	proto   protoCounters
	// rec is the program's recovery state (nil unless Options.Recovery).
	rec *progRecovery
	// board is the program's straggler board (nil unless Options.Diag).
	board *diag.Board

	errMu    sync.Mutex
	firstErr error
}

func newProgram(f *Framework, pc config.Program) (*Program, error) {
	p := &Program{
		fw:      f,
		name:    pc.Name,
		n:       pc.Procs,
		regions: make(map[string]regionDef),
		proto:   newProtoCounters(f.obs.Registry, pc.Name),
	}
	if f.opts.Diag != "" {
		p.board = diag.NewBoard(pc.Name, pc.Procs)
	}
	if ro := f.opts.Recovery; ro != nil {
		rec, err := newProgRecovery(ro, f.obs.Registry, pc.Name)
		if err != nil {
			return nil, err
		}
		p.rec = rec
	}
	repEP, err := f.net.Register(transport.Rep(pc.Name))
	if err != nil {
		return nil, fmt.Errorf("core: register rep of %s: %w", pc.Name, err)
	}
	p.rep = newRepRunner(p, transport.NewMergedDispatcher(repEP, f.opts.Clock))
	for r := 0; r < pc.Procs; r++ {
		ep, err := f.net.Register(transport.Proc(pc.Name, r))
		if err != nil {
			return nil, fmt.Errorf("core: register %s: %w", transport.Proc(pc.Name, r), err)
		}
		proc, err := newProcess(p, r, transport.NewDispatcherClock(ep, f.opts.Clock))
		if err != nil {
			return nil, err
		}
		p.procs = append(p.procs, proc)
	}
	return p, nil
}

// protoCounters holds the program's protocol instruments, preallocated from
// the registry at program construction so the hot paths never perform a
// registry lookup. Data-plane sends are counted per connection pipeline
// (exportConn.dataSends, core.data.sends); reports read every instrument by
// name from the registry (obsv.Sum).
type protoCounters struct {
	importCalls, requestsForwarded, responses *obsv.Counter
	answersSent, answersDelivered, buddy      *obsv.Counter
	dataDropped, peerDown, evictions          *obsv.Counter
}

func newProtoCounters(reg *obsv.Registry, program string) protoCounters {
	l := obsv.L("program", program)
	return protoCounters{
		importCalls:       reg.Counter("core.import.calls", l),
		requestsForwarded: reg.Counter("core.requests.forwarded", l),
		responses:         reg.Counter("core.responses", l),
		answersSent:       reg.Counter("core.answers.sent", l),
		answersDelivered:  reg.Counter("core.answers.delivered", l),
		buddy:             reg.Counter("core.buddy.messages", l),
		dataDropped:       reg.Counter("core.data.dropped", l),
		peerDown:          reg.Counter("core.peer.down", l),
		evictions:         reg.Counter("core.peer.evictions", l),
	}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Procs returns the number of processes.
func (p *Program) Procs() int { return p.n }

// Process returns the rank-th process.
func (p *Program) Process(rank int) *Process { return p.procs[rank] }

// DefineRegion declares a distributed region before Start. All processes of
// the program share the definition (it is a collective property).
func (p *Program) DefineRegion(name string, layout decomp.Layout) error {
	if name == "" {
		return fmt.Errorf("core: empty region name in program %s", p.name)
	}
	if _, dup := p.regions[name]; dup {
		return fmt.Errorf("core: program %s defined region %q twice", p.name, name)
	}
	if layout.Procs() != p.n {
		return fmt.Errorf("core: region %s.%s layout is for %d processes, program has %d",
			p.name, name, layout.Procs(), p.n)
	}
	p.regions[name] = regionDef{name: name, layout: layout}
	return nil
}

// start launches the rep loop and process control loops.
func (p *Program) start() {
	p.rep.start()
	for _, proc := range p.procs {
		proc.start()
	}
}

// fail records the program's first error and aborts its processes. With
// heartbeats enabled, the first failure is also announced to every peer rep
// so their detectors fire immediately instead of waiting out the lease.
func (p *Program) fail(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	first := p.firstErr == nil
	if first {
		p.firstErr = err
	}
	p.errMu.Unlock()
	if first {
		for _, proc := range p.procs {
			proc.abortWith(err)
		}
		if p.fw.opts.Heartbeat > 0 {
			p.rep.announceFailure(p.fw.peerPrograms(p.name), err)
		}
	}
}

// peerDown records that a coupled peer program died. Without recovery, the
// program fails with err (unblocking Export/Import calls, which return it)
// and every export buffer held only for the dead peer's connections is
// released — no request will ever consume those versions. With recovery
// enabled, the program suspends instead: buffers are kept (the restarted peer
// will resync from them), blocked calls keep waiting within Options.Timeout,
// and the rejoin handshake revives the coupling.
func (p *Program) peerDown(err *PeerDownError) {
	p.proto.peerDown.Inc()
	// A declared-dead peer is exactly the moment the flight dump exists for:
	// preserve the last protocol events around the death.
	p.rep.ring.Record(obsv.Span{Name: "flt.peer-down", TS: p.rep.ring.Now(), Detail: err.Peer})
	p.fw.DumpFlight("peer down: " + err.Error())
	if p.rec != nil {
		p.rec.suspends.Inc()
		return
	}
	p.fail(err)
	for _, proc := range p.procs {
		p.proto.evictions.Add(uint64(proc.evictPeer(err.Peer)))
	}
}

// err returns the program's first recorded error.
func (p *Program) err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

func (p *Program) close() {
	p.rep.close()
	for _, proc := range p.procs {
		proc.closeProc()
	}
}
