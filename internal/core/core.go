// Package core implements the paper's contribution: a loosely coupled
// framework for parallel simulation components with approximate temporal
// matching and the buddy-help optimization (Wu & Sussman, IPPS 2007).
//
// A Framework hosts a set of named parallel programs (each a group of
// goroutine "processes" plus one representative) wired together by a
// configuration (package config). Programs define distributed regions, then
// their processes call the collective operations Export and Import; the
// framework buffers exported versions (package buffer), resolves import
// requests through per-program representatives (package rep), moves matched
// data along MxN redistribution schedules (package decomp), and — when
// Options.BuddyHelp is on — lets the fastest exporter process's decision
// spare its slower peers from unnecessary buffering.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/obsv"
	"repro/internal/obsv/diag"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// DefaultTimeout bounds blocking framework waits (import answers, data
// pieces, startup handshakes).
const DefaultTimeout = 60 * time.Second

// DefaultExportQueueDepth is the per-connection pipeline queue bound: how
// many resolution/send jobs may be in flight before Export blocks
// (backpressure).
const DefaultExportQueueDepth = 64

// exportWorkers bounds the concurrent per-destination-rank transfers of one
// matched-data fan-out: min(4, GOMAXPROCS), so small machines don't
// oversubscribe and big ones don't spawn a goroutine per importer rank.
func exportWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

// Options tunes a Framework.
type Options struct {
	// Network supplies the transport, composed by the caller in the one legal
	// order (package transport, "The stack"); nil means a fresh in-memory
	// network. The framework adds no layer of its own.
	Network transport.Network
	// BuddyHelp enables the paper's optimization: representatives send the
	// final match answer to processes whose response was PENDING.
	BuddyHelp bool
	// BufferMaxBytes bounds each per-connection export buffer (0 = unbounded).
	BufferMaxBytes int64
	// Timeout bounds blocking waits; 0 means DefaultTimeout.
	Timeout time.Duration
	// Obsv supplies the runtime observability layer (metrics registry, span
	// tracer, /statusz sections). nil means a private registry-only observer:
	// the instruments are always the single counting path, tracing is off,
	// and nothing is served. Pass an observer with a Tracer (obsv.Config
	// {Tracing: true}) to record protocol spans — the paper-figure events
	// among them ("fig.*", see buffer.FigureLines) — and piggyback trace IDs
	// on the wire; pass the same observer to obsv.Serve to introspect the run.
	Obsv *obsv.Observer
	// Heartbeat enables peer-failure detection between representatives: reps
	// beacon every Heartbeat/2 and declare a previously-seen peer dead after
	// silence beyond 1.5x the interval, so failures surface within 2x
	// Heartbeat. A declared-dead peer fails the program with an error matching
	// ErrPeerDown (errors.Is), unblocking Export/Import promptly, evicting
	// export buffers held for the dead peer, and announcing the failure to the
	// remaining peers. 0 disables detection (the default): the blanket Timeout
	// is then the only guard against a vanished peer. With Recovery enabled, a
	// declared-dead peer suspends the program instead of failing it — the
	// rejoin handshake revives the coupling when the peer restarts.
	Heartbeat time.Duration
	// Recovery enables collective-sequence checkpointing and crash recovery
	// (see RecoveryOptions). nil disables it.
	Recovery *RecoveryOptions
	// Clock supplies the framework's time source — heartbeat leases, startup
	// deadlines, stall accounting, checkpoint timing, and the receive
	// deadlines of every dispatcher the framework builds, Process.Comm's
	// round timeouts among them (nil = wall clock). The deterministic
	// simulation harness injects a virtual clock; the transport layers of
	// Options.Network take their own clocks via their configs.
	Clock vclock.Clock
	// Diag enables coupling-aware diagnosis and names the directory flight
	// dumps are written to ("" = off). Each program's rep then blames, per
	// answered import request, the process that reported the oldest latest
	// export (the paper's p_s) on a straggler board, served as
	// /diag/stragglers and as a /statusz diag: block beside each exporter
	// process's T_ub and memcpy counts; nothing changes on the wire. Diag
	// implies tracing: without a Tracer on Obsv the framework builds one on
	// Clock, so the flt.* flight events — and with them the timing spans,
	// the fig.* lines and trace IDs on the wire — are recorded on the span
	// rings, and DumpFlight (called on heartbeat-declared peer death too)
	// writes them to this directory.
	Diag string
}

// Framework hosts one coupled run — either every program of the
// configuration (New, the single-process mode used by tests and benchmarks)
// or a single program joining its peers over a shared transport (Join, the
// distributed mode matching the paper's deployment of one binary per
// component).
type Framework struct {
	cfg  *config.Config
	opts Options
	net  transport.Network

	// local is the hosted program's name in distributed mode ("" = all).
	local    string
	programs map[string]*Program

	// obs is the observability layer (never nil — a private registry-only
	// observer is created when Options.Obsv is nil); tracer is obs.Tracer,
	// hoisted because the hot paths nil-check it, or the framework's own
	// tracer when Options.Diag needs one and obs has none.
	obs    *obsv.Observer
	tracer *obsv.Tracer

	mu      sync.Mutex
	started bool
	closed  bool
}

// statusName is this framework's /statusz section name.
func (f *Framework) statusName() string {
	if f.local != "" {
		return "coupling(" + f.local + ")"
	}
	return "coupling"
}

// initObsv resolves Options.Obsv (private registry-only observer when nil),
// bridges the counters of the coalescing and TCP layers of the given stack
// into the registry, and registers the framework's /statusz section.
func (f *Framework) initObsv() {
	f.obs = f.opts.Obsv
	if f.obs == nil {
		f.obs = obsv.New(obsv.Config{})
	}
	f.tracer = f.obs.Tracer
	if f.tracer == nil && f.opts.Diag != "" {
		f.tracer = obsv.NewTracer(0, f.opts.Clock)
	}
	reg := f.obs.Registry
	c := transport.FindLayer[*transport.CoalescingNetwork](f.net)
	t := transport.FindLayer[*transport.TCPNetwork](f.net)
	if c != nil {
		reg.GaugeFunc("transport.frames.messages", func() float64 { return float64(c.Stats().Messages) })
		reg.GaugeFunc("transport.frames.sent", func() float64 { return float64(c.Stats().Frames) })
		reg.GaugeFunc("transport.frames.coalesced", func() float64 { return float64(c.Stats().Batched) })
		reg.GaugeFunc("transport.frames.batches", func() float64 { return float64(c.Stats().Batches) })
		reg.GaugeFunc("transport.frames.payload.bytes", func() float64 { return float64(c.Stats().PayloadBytes) })
	}
	// transport.decode_errors totals malformed input at every layer that
	// decodes wire bytes: TCP frames and coalescing batch envelopes.
	if t != nil || c != nil {
		reg.GaugeFunc("transport.decode_errors", func() float64 {
			var n float64
			if t != nil {
				n += float64(t.Stats().DecodeErrors)
			}
			if c != nil {
				n += float64(c.Stats().DecodeErrors)
			}
			return n
		})
	}
	if t != nil {
		reg.GaugeFunc("transport.reconnects", func() float64 { return float64(t.Stats().Reconnects) })
	}
	f.obs.AddStatus(f.statusName(), f.writeStatus)
}

// initDiag mounts the /diag/stragglers endpoint once the hosted programs —
// and so their straggler boards — exist. The boards slice is fixed at build
// time (the program set never changes after New/Join), so the per-request
// closure reads immutable state.
func (f *Framework) initDiag() {
	if f.opts.Diag == "" {
		return
	}
	boards := make([]*diag.Board, 0, len(f.programs))
	for _, p := range f.programs {
		boards = append(boards, p.board)
	}
	f.obs.Handle("/diag/stragglers", diag.Handler(5, func() []*diag.Board { return boards }))
}

// DumpFlight writes the framework's span rings — the flt.* flight events
// among them — as Chrome trace JSON to a new flight-*.json file in
// Options.Diag and returns its path. Called on SIGQUIT by cmd/coupled; the
// framework itself also dumps on heartbeat-declared peer death. A no-op
// ("", nil) unless Options.Diag.
func (f *Framework) DumpFlight(reason string) (string, error) {
	if f.opts.Diag == "" {
		return "", nil
	}
	return f.tracer.DumpFile(f.opts.Diag, reason)
}

// writeStatus renders the /statusz section: per-connection pipeline state of
// every hosted process and the heartbeat view of every hosted rep.
func (f *Framework) writeStatus(w io.Writer) {
	if t := transport.FindLayer[*transport.TCPNetwork](f.net); t != nil {
		s := t.Stats()
		fmt.Fprintf(w, "transport: reconnects=%d decode_errors=%d\n", s.Reconnects, s.DecodeErrors)
	}
	names := make([]string, 0, len(f.programs))
	for name := range f.programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := f.programs[name]
		fmt.Fprintf(w, "program %s (%d procs)\n", name, p.n)
		if err := p.err(); err != nil {
			fmt.Fprintf(w, "  FAILED: %v\n", err)
		}
		for _, proc := range p.procs {
			regions := make([]string, 0, len(proc.exps))
			for region := range proc.exps {
				regions = append(regions, region)
			}
			sort.Strings(regions)
			for _, region := range regions {
				for _, ec := range proc.exps[region].conns {
					fmt.Fprintf(w, "  %s %s depth=%d peak=%d jobs=%d sends=%d flushes=%d stall=%v\n",
						proc.addr(), ec.key, len(ec.jobs), ec.peakDepth.Load(),
						ec.queued.Load(), ec.dataSends.Load(), ec.flushes.Load(),
						time.Duration(ec.stall.Load()).Round(time.Microsecond))
				}
			}
		}
		// Per-op/per-algo collective timings (the histograms are shared by
		// every process of the program, so one comm's view covers all).
		if len(p.procs) > 0 {
			if ins := p.procs[0].Comm().Instruments(); ins != nil {
				var buf bytes.Buffer
				ins.WriteStatus(&buf)
				if buf.Len() > 0 {
					fmt.Fprintf(w, "  collectives:\n")
					w.Write(buf.Bytes())
				}
			}
		}
		if p.board != nil {
			fmt.Fprintf(w, "  diag:\n")
			p.board.WriteStatus(w)
			writeWaste(w, p)
		}
		if hb := f.opts.Heartbeat; hb > 0 {
			for _, st := range p.rep.fd.peers() {
				state := "alive"
				if st.Declared {
					state = "DOWN"
				}
				fmt.Fprintf(w, "  heartbeat peer %s: %s, last seen %v ago\n",
					st.Peer, state, st.Since.Round(time.Millisecond))
			}
		}
	}
}

// writeWaste renders, per exporter process of p, what its buffering cost —
// the paper's T_ub and the memcpys done and skipped, summed over its export
// connections — marking the board's top straggler as p_s.
func writeWaste(w io.Writer, p *Program) {
	top := p.board.Snapshot().Top(1)
	for _, proc := range p.procs {
		if len(proc.exps) == 0 {
			continue
		}
		var s buffer.Stats
		for region := range proc.exps {
			conns, _ := proc.ExportStats(region)
			for _, c := range conns {
				s.UnnecessaryTime += c.UnnecessaryTime
				s.Copies += c.Copies
				s.Skips += c.Skips
			}
		}
		mark := ""
		if len(top) > 0 && top[0].Rank == proc.rank {
			mark = " <- p_s"
		}
		fmt.Fprintf(w, "    rank %d: T_ub=%v memcpys=%d skipped=%d%s\n",
			proc.rank, s.UnnecessaryTime, s.Copies, s.Skips, mark)
	}
}

// New builds a framework for a parsed coupling configuration. Every program
// in the configuration is instantiated with its configured process count;
// regions must be defined (Program.DefineRegion) before Start.
func New(cfg *config.Config, opts Options) (*Framework, error) {
	if opts.Network == nil {
		opts.Network = transport.NewMemNetwork()
	}
	return build(cfg, "", cfg.Programs, opts)
}

// Join builds a framework hosting only the named program of the
// configuration, connecting to its peers over the supplied network
// (typically transport.NewTCPNetwork against a shared router). Every
// participating program runs its own Join — in separate OS processes if
// desired — against the same configuration file; Start blocks until the
// layout handshake with all coupled peers completes.
func Join(cfg *config.Config, program string, opts Options) (*Framework, error) {
	if opts.Network == nil {
		return nil, fmt.Errorf("core: Join(%q) needs an explicit shared network", program)
	}
	pc, ok := cfg.Program(program)
	if !ok {
		return nil, fmt.Errorf("core: configuration has no program %q", program)
	}
	return build(cfg, program, []config.Program{pc}, opts)
}

// build is the constructor behind New and Join: a framework over
// opts.Network hosting the given programs (local names the one Join hosts).
func build(cfg *config.Config, local string, hosted []config.Program, opts Options) (*Framework, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	opts.Clock = vclock.Or(opts.Clock)
	f := &Framework{
		cfg:      cfg,
		opts:     opts,
		net:      opts.Network,
		local:    local,
		programs: make(map[string]*Program),
	}
	f.initObsv()
	for _, pc := range hosted {
		p, err := newProgram(f, pc)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.programs[pc.Name] = p
	}
	f.initDiag()
	return f, nil
}

// PoolViolations returns every buffer-pool ownership violation (a double
// free the pool refused) recorded across the hosted processes. The
// simulation harness asserts it is empty after every run.
func (f *Framework) PoolViolations() []string {
	var out []string
	for _, p := range f.programs {
		for _, proc := range p.procs {
			out = append(out, proc.pool.Violations()...)
		}
	}
	return out
}

// Local returns the hosted program in distributed mode (Join).
func (f *Framework) Local() (*Program, error) {
	if f.local == "" {
		return nil, fmt.Errorf("core: Local() on a framework hosting all programs")
	}
	return f.Program(f.local)
}

// hosts reports whether this framework instantiates the named program.
func (f *Framework) hosts(name string) bool {
	_, ok := f.programs[name]
	return ok
}

// Program returns the named program.
func (f *Framework) Program(name string) (*Program, error) {
	p, ok := f.programs[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown program %q", name)
	}
	return p, nil
}

// MustProgram is Program for names known to exist (panics otherwise).
func (f *Framework) MustProgram(name string) *Program {
	p, err := f.Program(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Start validates the coupling against the defined regions, wires the
// representatives and processes, exchanges region layouts, and returns once
// every process is ready for Export/Import calls.
func (f *Framework) Start() error {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return errors.New("core: framework already started")
	}
	f.started = true
	f.mu.Unlock()

	// Early detection of an incorrect coupling specification (Section 3.1):
	// every hosted connection endpoint must be a defined region; when both
	// sides are hosted, the global array shapes must agree. (In distributed
	// mode the peer's shape is checked when its layout arrives and the
	// redistribution schedule is computed.)
	for _, conn := range f.cfg.Connections {
		var expDef, impDef regionDef
		var err error
		if f.hosts(conn.Export.Program) {
			if expDef, err = f.regionDef(conn.Export); err != nil {
				return err
			}
			if conn.Windowed() && !decomp.Bounds(expDef.layout).ContainsRect(conn.Window) {
				er, ec := expDef.layout.Shape()
				return fmt.Errorf("core: connection %s: window %v outside the %dx%d region",
					conn, conn.Window, er, ec)
			}
		}
		if f.hosts(conn.Import.Program) {
			if impDef, err = f.regionDef(conn.Import); err != nil {
				return err
			}
		}
		if f.hosts(conn.Export.Program) && f.hosts(conn.Import.Program) {
			er, ec := expDef.layout.Shape()
			ir, ic := impDef.layout.Shape()
			if er != ir || ec != ic {
				return fmt.Errorf("core: connection %s couples a %dx%d region to a %dx%d region",
					conn, er, ec, ir, ic)
			}
		}
	}

	// Start representative loops and process control loops.
	for _, p := range f.programs {
		p.start()
	}

	// Restored programs re-introduce themselves before the layout exchange:
	// a surviving peer must reset its transport session toward the restarted
	// incarnation (handleRejoin) before any layout reply it sends can be
	// delivered under the new session epoch. Re-sent with the layout
	// announcements below; peers deduplicate by epoch.
	announceRejoins := func() error {
		for _, p := range f.programs {
			if p.rec != nil && p.rec.restored != nil {
				if err := p.rep.announceRejoin(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := announceRejoins(); err != nil {
		return err
	}

	// Rep-to-rep layout handshake: each hosted side tells the peer rep the
	// layout of its end of every connection; peer reps fan the specs out to
	// their processes, which finish wiring their import/export state. In
	// distributed mode the peer may not have registered yet, so the
	// announcements are re-sent until every local process is ready (the
	// receiving side deduplicates).
	sendLayouts := func() error {
		for _, conn := range f.cfg.Connections {
			key := connKey(conn.Export.String(), conn.Import.String())
			if expProg, ok := f.programs[conn.Export.Program]; ok {
				spec, err := decomp.SpecOf(expProg.regions[conn.Export.Region].layout)
				if err != nil {
					return err
				}
				err = expProg.rep.sendLayout(transport.Rep(conn.Import.Program), layoutMsg{
					Conn: key, Region: conn.Import.Region, Remote: spec,
				})
				if err != nil && !errors.Is(err, transport.ErrUnknownAddr) {
					return err
				}
			}
			if impProg, ok := f.programs[conn.Import.Program]; ok {
				spec, err := decomp.SpecOf(impProg.regions[conn.Import.Region].layout)
				if err != nil {
					return err
				}
				err = impProg.rep.sendLayout(transport.Rep(conn.Export.Program), layoutMsg{
					Conn: key, Region: conn.Export.Region, Remote: spec,
				})
				if err != nil && !errors.Is(err, transport.ErrUnknownAddr) {
					return err
				}
			}
		}
		return nil
	}
	if err := sendLayouts(); err != nil {
		return err
	}
	// Wait until every hosted process reports ready, re-announcing layouts
	// periodically for peers that registered late.
	clock := f.opts.Clock
	deadline := clock.Now().Add(f.opts.Timeout)
	for _, p := range f.programs {
		for _, proc := range p.procs {
			for {
				wait := clock.Until(deadline)
				if wait > 200*time.Millisecond {
					wait = 200 * time.Millisecond
				}
				err := proc.waitReady(wait)
				if err == nil {
					break
				}
				if clock.Now().After(deadline) {
					return fmt.Errorf("core: %s startup: %w", proc.addr(), err)
				}
				if err := announceRejoins(); err != nil {
					return err
				}
				if err := sendLayouts(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (f *Framework) regionDef(ep config.Endpoint) (regionDef, error) {
	p, ok := f.programs[ep.Program]
	if !ok {
		return regionDef{}, fmt.Errorf("core: connection names unknown program %q", ep.Program)
	}
	def, ok := p.regions[ep.Region]
	if !ok {
		return regionDef{}, fmt.Errorf("core: program %s never defined region %q named in the coupling configuration",
			ep.Program, ep.Region)
	}
	return def, nil
}

// Obsv returns the framework's observability layer — Options.Obsv, or the
// private registry-only observer created when none was supplied. Never nil.
func (f *Framework) Obsv() *obsv.Observer { return f.obs }

// Err returns the first violation or internal error any program hit, or nil.
func (f *Framework) Err() error {
	for _, p := range f.programs {
		if err := p.err(); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the framework down. Outstanding Export/Import calls fail.
func (f *Framework) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.obs.RemoveStatus(f.statusName())
	for _, p := range f.programs {
		p.close()
	}
	return f.net.Close()
}
