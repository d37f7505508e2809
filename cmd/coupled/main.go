// Command coupled runs a coupling configuration file (the paper's Figure 2
// format) with synthetic data-parallel programs: every program named in a
// connection's export side exports a time-varying analytic field each
// iteration, and every import side imports on its own (coarser) schedule.
// It demonstrates the framework's headline property: the coupling lives
// entirely in the configuration file — the same program code runs under any
// wiring.
//
// Example configuration (see testdata/ and the paper's Figure 2):
//
//	F local builtin 4
//	U local builtin 8
//	#
//	F.f U.f REGL 2.5
//
// Usage:
//
//	coupled -config coupling.cfg -steps 100 -every 10
//
// Distributed mode runs each program in its own OS process against a shared
// router (the paper's one-binary-per-component deployment):
//
//	coupled -router-listen 127.0.0.1:7000                    # terminal 0
//	coupled -config c.cfg -program F -router 127.0.0.1:7000  # terminal 1
//	coupled -config c.cfg -program U -router 127.0.0.1:7000  # terminal 2
//
// Crash recovery takes collective-sequence checkpoints and lets a killed
// component restart from its last checkpoint and rejoin the survivors:
//
//	coupled -config c.cfg -program U -router ... -checkpoint-dir ckpt -checkpoint-every 10
//	# kill -9 the U process mid-run, then:
//	coupled -config c.cfg -program U -router ... -checkpoint-dir ckpt -restore
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/obsv"
	"repro/internal/recover"
	"repro/internal/transport"
)

func main() {
	var (
		cfgPath = flag.String("config", "", "coupling configuration file (Figure 2 format)")
		program = flag.String("program", "", "run only this program, joining peers over -router (distributed mode)")
		router  = flag.String("router", "", "address of a running coupling router (with -program)")
		listen  = flag.String("router-listen", "", "run a coupling router on this address and block")
		gridN   = flag.Int("n", 64, "global array size per region (n x n)")
		steps   = flag.Int("steps", 100, "exporter iterations per program")
		every   = flag.Int("every", 10, "importer requests once per this many exporter steps")
		buddy   = flag.Bool("buddy", true, "enable buddy-help")
		verbose = flag.Bool("v", false, "print per-import match lines")
		hb      = flag.Duration("heartbeat", 0,
			"rep heartbeat interval: detect a dead peer program within 2x this (0 = disabled)")
		retries = flag.Int("maxretries", 0,
			"distributed mode: reconnect to the router up to this many times after a connection "+
				"failure, replaying unacknowledged messages (0 = fail on first loss)")
		ckptDir = flag.String("checkpoint-dir", "",
			"enable crash recovery: persist collective-sequence checkpoints for the hosted "+
				"programs under this directory")
		ckptEvery = flag.Int("checkpoint-every", 10,
			"checkpoint once per this many steps (with -checkpoint-dir; a collective schedule "+
				"— every process of a program checkpoints at the same step)")
		restore = flag.Bool("restore", false,
			"restore the hosted programs from their last checkpoint in -checkpoint-dir, rejoin "+
				"the surviving peers, and resume the step loop after the checkpointed step")
		obsvAddr = flag.String("obsv-addr", "",
			"serve live introspection on this address: /metrics (Prometheus), /trace (Chrome "+
				"trace JSON), /statusz, /debug/pprof")
		obsvTrace = flag.Bool("obsv-trace", false,
			"record protocol spans (dump at /trace or with -trace-out; piggybacks trace IDs on the wire)")
		traceOut = flag.String("trace-out", "",
			"write the recorded span trace as Chrome trace JSON to this file on exit (implies -obsv-trace)")
		diagDir = flag.String("diag", "",
			"enable coupling-aware diagnosis, dumping flight traces to this directory: per-request "+
				"straggler attribution (/diag/stragglers, statusz diag: section) and flt.* flight events "+
				"on the span rings, written as flight-*.json on peer death or SIGQUIT (implies -obsv-trace)")
	)
	flag.Parse()
	if *listen != "" {
		r, err := transport.StartTCPRouter(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coupled:", err)
			os.Exit(1)
		}
		fmt.Printf("coupling router listening on %s\n", r.ListenAddr())
		select {} // serve until killed
	}
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "coupled: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*cfgPath, *program, *router, *gridN, *steps, *every, *buddy, *verbose, *hb, *retries,
		*ckptDir, *ckptEvery, *restore, *obsvAddr, *obsvTrace || *traceOut != "" || *diagDir != "", *traceOut,
		*diagDir); err != nil {
		fmt.Fprintln(os.Stderr, "coupled:", err)
		os.Exit(1)
	}
}

// roles derived from the configuration: which regions each program exports
// and imports.
type role struct {
	exports []string
	imports []string
}

func rolesOf(cfg *config.Config) map[string]*role {
	out := make(map[string]*role)
	for _, p := range cfg.Programs {
		out[p.Name] = &role{}
	}
	for _, c := range cfg.Connections {
		er := out[c.Export.Program]
		if !contains(er.exports, c.Export.Region) {
			er.exports = append(er.exports, c.Export.Region)
		}
		ir := out[c.Import.Program]
		if !contains(ir.imports, c.Import.Region) {
			ir.imports = append(ir.imports, c.Import.Region)
		}
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func run(cfgPath, program, router string, gridN, steps, every int, buddy, verbose bool,
	heartbeat time.Duration, maxRetries int, ckptDir string, ckptEvery int, restore bool,
	obsvAddr string, tracing bool, traceOut string, diagDir string) error {
	cfg, err := config.ParseFile(cfgPath)
	if err != nil {
		return err
	}
	opts := core.Options{
		BuddyHelp: buddy, Timeout: 2 * time.Minute, Heartbeat: heartbeat, Diag: diagDir,
	}
	// Restart epoch: 0 for a fresh start; a restore learns it from the saved
	// checkpoint before the transport session is built, so peers can tell the
	// new incarnation's session from the dead one's.
	var epoch uint64
	if ckptDir != "" {
		store, err := recover.NewDirStore(ckptDir)
		if err != nil {
			return err
		}
		opts.Recovery = &core.RecoveryOptions{Store: store, Restore: restore, Every: ckptEvery}
		if restore && program != "" {
			ck, err := store.Load(program)
			if err != nil {
				return err
			}
			if ck == nil {
				// Without a checkpoint there is no restart epoch: the fresh
				// session would collide with the peers' memory of the dead one.
				return fmt.Errorf("-restore: no checkpoint for %s in %s", program, ckptDir)
			}
			epoch = ck.Epoch + 1
		}
	} else if restore {
		return fmt.Errorf("-restore needs -checkpoint-dir")
	}
	var obs *obsv.Observer
	if obsvAddr != "" || tracing {
		obs = obsv.New(obsv.Config{Tracing: tracing})
		opts.Obsv = obs
	}
	if obsvAddr != "" {
		srv, err := obsv.Serve(obsvAddr, obs)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s (/metrics /trace /statusz /debug/pprof)\n", srv.Addr())
	}
	var fw *core.Framework
	if program != "" {
		if router == "" {
			return fmt.Errorf("-program needs -router")
		}
		tcp := transport.NewTCPNetwork(router)
		tcp.SessionEpoch = epoch
		opts.Network = tcp
		if maxRetries > 0 {
			tcp.MaxRetries = maxRetries
		}
		if maxRetries > 0 || opts.Recovery != nil {
			// Reconnection alone redials the router; the reliable layer on top
			// replays whatever the dead socket swallowed, exactly once. Crash
			// recovery needs it too: rejoin resets sessions per restart epoch.
			opts.Network = transport.NewReliableNetwork(tcp, transport.ReliableConfig{
				SessionEpoch: uint32(epoch),
			})
		}
		fw, err = core.Join(cfg, program, opts)
	} else {
		fw, err = core.New(cfg, opts)
	}
	if err != nil {
		return err
	}
	defer fw.Close()

	if diagDir != "" {
		// SIGQUIT preserves its kill semantics but writes the span rings
		// first: the crashed run's last protocol events, a Chrome trace that
		// Perfetto opens and `couplebench coupleflight <files>` merges.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGQUIT)
		defer signal.Stop(sigc)
		go func() {
			<-sigc
			if path, err := fw.DumpFlight("SIGQUIT"); err != nil {
				fmt.Fprintln(os.Stderr, "coupled: flight dump:", err)
			} else {
				fmt.Fprintf(os.Stderr, "coupled: flight dump written to %s\n", path)
			}
			os.Exit(2)
		}()
	}

	roles := rolesOf(cfg)
	if program != "" {
		// Distributed mode: only our own program's processes run here.
		for name := range roles {
			if name != program {
				delete(roles, name)
			}
		}
	}
	// Define one RowBlock region per referenced region name.
	for name, r := range roles {
		prog := fw.MustProgram(name)
		for _, reg := range append(append([]string{}, r.exports...), r.imports...) {
			layout, err := decomp.NewRowBlock(gridN, gridN, prog.Procs())
			if err != nil {
				return fmt.Errorf("program %s: %w", name, err)
			}
			if err := prog.DefineRegion(reg, layout); err != nil {
				return err
			}
		}
	}
	if err := fw.Start(); err != nil {
		return err
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []error
	report := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}

	names := make([]string, 0, len(roles))
	for name := range roles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := fw.MustProgram(name)
		if seq, ok := prog.RestoredSeq(); ok {
			fmt.Printf("%s: restored from checkpoint seq %d (epoch %d), resuming at step %d\n",
				name, seq, prog.Epoch(), seq+1)
		}
	}

	for _, name := range names {
		r := roles[name]
		prog := fw.MustProgram(name)
		for rank := 0; rank < prog.Procs(); rank++ {
			wg.Add(1)
			go func(name string, r *role, rank int) {
				defer wg.Done()
				report(runProcess(fw, name, r, rank, steps, every, verbose))
			}(name, r, rank)
		}
	}
	wg.Wait()
	if err := fw.Err(); err != nil {
		return err
	}
	if len(failures) > 0 {
		return failures[0]
	}
	if program != "" {
		// Distributed mode: linger so peers that are still importing can
		// collect their answers and data before this component tears down
		// (shutdown coordination between independently developed programs is
		// application-level; FinishRegion has already resolved every pending
		// request).
		time.Sleep(2 * time.Second)
	}

	// Summaries: buffer statistics of the last exporter rank, and the
	// instruments read by name from the registry.
	snap := fw.Obsv().Registry.Snapshot()
	for _, name := range names {
		r := roles[name]
		prog := fw.MustProgram(name)
		last := strconv.Itoa(prog.Procs() - 1)
		for _, reg := range r.exports {
			stats, err := prog.Process(prog.Procs() - 1).ExportStats(reg)
			if err != nil {
				continue
			}
			imps := make([]string, 0, len(stats))
			for imp := range stats {
				imps = append(imps, imp)
			}
			sort.Strings(imps)
			for _, imp := range imps {
				st := stats[imp]
				stall := obsv.Sum(snap, "core.export.stall.ns", obsv.L("program", name), obsv.L("rank", last),
					obsv.L("conn", name+"."+reg+">"+imp))
				fmt.Printf("%s.%s -> %s: %d exports, %d memcpys, %d skips, %d transfers, T_ub %v, pipeline stall %v (last rank)\n",
					name, reg, imp, st.Exports, st.Copies, st.Skips, st.Sends,
					st.UnnecessaryTime.Round(time.Microsecond), time.Duration(stall).Round(time.Microsecond))
			}
		}
		count := func(instrument string) int { return int(obsv.Sum(snap, instrument, obsv.L("program", name))) }
		line := fmt.Sprintf("%s: %d data messages", name, count("core.data.sends"))
		if n := count("core.data.dropped"); n > 0 {
			line += fmt.Sprintf(", %d dropped", n)
		}
		if n := count("core.peer.evictions"); n > 0 {
			line += fmt.Sprintf(", %d versions evicted for dead peers", n)
		}
		agreed, revokes, shrinks := count("collective.failures.agreed"), count("collective.failures.revokes"),
			count("collective.failures.shrinks")
		if agreed > 0 || revokes > 0 || shrinks > 0 {
			line += fmt.Sprintf(", rank failures: %d agreed / %d revokes / %d shrinks", agreed, revokes, shrinks)
		}
		fmt.Println(line)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := obs.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("span trace written to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	}
	return nil
}

// runProcess drives one process: export all export-regions every step,
// import all import-regions every `every` steps.
func runProcess(fw *core.Framework, name string, r *role, rank, steps, every int, verbose bool) error {
	prog := fw.MustProgram(name)
	p := prog.Process(rank)

	type expState struct {
		region string
		block  decomp.Rect
		data   []float64
	}
	var exps []expState
	for _, reg := range r.exports {
		block, err := p.Block(reg)
		if err != nil {
			return err
		}
		exps = append(exps, expState{region: reg, block: block, data: make([]float64, block.Area())})
	}
	type impState struct {
		region string
		block  decomp.Rect
		dst    []float64
	}
	var imps []impState
	for _, reg := range r.imports {
		block, err := p.Block(reg)
		if err != nil {
			return err
		}
		imps = append(imps, impState{region: reg, block: block, dst: make([]float64, block.Area())})
	}

	// With -restore, the step loop resumes right after the checkpointed
	// collective sequence number (every rank restores the same one).
	start := 1
	if seq, ok := prog.RestoredSeq(); ok {
		start = int(seq) + 1
	}
	ckptEvery := fw.CheckpointEvery()
	importCycles := steps / every
	for k := start; k <= steps; k++ {
		ts := float64(k)
		for _, e := range exps {
			fill(e.block, ts, e.data)
			if err := p.Export(e.region, ts, e.data); err != nil {
				return fmt.Errorf("%s:%d export %s@%g: %w", name, rank, e.region, ts, err)
			}
		}
		if len(imps) > 0 && k%every == 0 && k/every <= importCycles {
			// Request slightly behind the exporters (ts-0.5) so the final
			// request is still decidable from the exports that will exist.
			req := ts - 0.5
			for i := range imps {
				im := &imps[i]
				res, err := p.Import(im.region, req, im.dst)
				if err != nil {
					return fmt.Errorf("%s:%d import %s@%g: %w", name, rank, im.region, req, err)
				}
				if verbose && rank == 0 {
					if res.Matched {
						fmt.Printf("%s imported %s@%g -> matched D@%g\n", name, im.region, req, res.MatchTS)
					} else {
						fmt.Printf("%s imported %s@%g -> NO MATCH\n", name, im.region, req)
					}
				}
			}
		}
		if ckptEvery > 0 && k%ckptEvery == 0 {
			if err := p.Checkpoint(uint64(k)); err != nil {
				return fmt.Errorf("%s:%d checkpoint @%d: %w", name, rank, k, err)
			}
		}
	}
	// End of stream: resolve any requests still pending on our exports.
	for _, e := range exps {
		if err := p.FinishRegion(e.region); err != nil {
			return fmt.Errorf("%s:%d finish %s: %w", name, rank, e.region, err)
		}
	}
	return nil
}

// fill writes a recognizable analytic field for timestamp ts.
func fill(block decomp.Rect, ts float64, dst []float64) {
	i := 0
	for r := block.R0; r < block.R1; r++ {
		for c := block.C0; c < block.C1; c++ {
			dst[i] = math.Sin(ts/7) * float64(r+c)
			i++
		}
	}
}
