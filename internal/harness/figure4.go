// Package harness drives the paper's experiments: the Figure-4
// micro-benchmark (per-iteration data-export time of the slowest process of
// the forcing program F, for importer programs U of 4/8/16/32 processes),
// the Figure 5/7/8 scenario traces, and the T_ub ablation of Equations
// (1)-(2).
package harness

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// Figure4Config parameterizes one Figure-4 run. The defaults returned by
// DefaultFigure4 reproduce the paper's setup scaled to a laptop: program F
// has 4 processes on a 2x2 grid (one of them, p_s, artificially slowed);
// program U has 4/8/16/32 processes; 1001 exports with one of every 20
// matched (REGL, tolerance 2.5).
type Figure4Config struct {
	Name          string
	GridN         int // global array is GridN x GridN
	ExporterProcs int // process grid is 2 x ExporterProcs/2
	ImporterProcs int
	Exports       int
	MatchEvery    int // one request per MatchEvery exports
	Tolerance     float64
	BuddyHelp     bool
	// FastWork/SlowWork simulate the per-export computation of the fast
	// processes p1..p3 and the slow process p_s.
	FastWork, SlowWork time.Duration
	// ImporterWork simulates program U's total per-iteration computation;
	// each U process works for ImporterWork / ImporterProcs, so U speeds up as
	// it gets more processes (the paper keeps the 1024^2 array fixed).
	ImporterWork time.Duration
	// SyncImporter adds a neighbor token exchange to program U's iteration,
	// modeling the internal synchronization a real PDE solver's halo
	// exchange imposes (the paper's U is a coupled stencil code). Ranks may
	// then drift apart by at most one iteration per rank of distance, so
	// the request-issuing rank creeps ahead of the ranks gated by p_s only
	// gradually — reproducing the paper's slow approach to the optimal
	// state in Figure 4(c). Without it, unconstrained ranks run requests
	// ahead immediately and the optimal state arrives almost at once.
	SyncImporter bool
	// NetLatency, when positive, injects that much one-way latency (plus
	// 10% jitter) into every framework message, modeling the paper's
	// Gigabit-Ethernet testbed or a WAN. Buddy-help messages must outrun
	// the slow process's exports to save copies, so latency erodes the
	// optimization's window.
	NetLatency time.Duration
	// Coalesce batches same-destination control messages into shared
	// transport frames (transport.CoalescingNetwork over the run's network).
	Coalesce bool
	Runs     int
	// Obsv, when non-nil, is the observability layer the run's framework
	// publishes into: metrics, /statusz sections and — when the observer
	// has a Tracer — protocol spans. Pass the same observer to obsv.Serve
	// to watch the run live.
	Obsv *obsv.Observer
}

// DefaultFigure4 returns the scaled paper configuration for an importer with
// n processes. The work constants are chosen so the four paper
// configurations land in the same regimes as Figure 4: U=4 and U=8 slower
// than F (flat export time, everything buffered), U=16 slightly faster than
// p_s (gradual approach to the optimal state), U=32 much faster (optimal
// almost immediately).
func DefaultFigure4(n int) Figure4Config {
	return Figure4Config{
		Name:          fmt.Sprintf("U=%d", n),
		GridN:         256,
		ExporterProcs: 4,
		ImporterProcs: n,
		Exports:       1001,
		MatchEvery:    20,
		Tolerance:     2.5,
		BuddyHelp:     true,
		FastWork:      200 * time.Microsecond,
		SlowWork:      time.Millisecond,
		// p_s produces one request cycle (MatchEvery exports) per
		// MatchEvery*SlowWork = 20ms, plus buffering. 300ms of importer
		// work per cycle puts U=4 (75ms) and U=8 (37.5ms) clearly behind F
		// (everything buffered, flat export times), U=16 (18.75ms) slightly
		// ahead of p_s's 20ms floor (gradual approach to the optimal
		// state), and U=32 (9.4ms) far ahead (optimal almost immediately) —
		// the same four regimes as the paper's Figure 4(a)-(d).
		ImporterWork: 300 * time.Millisecond,
		Runs:         1,
	}
}

// Figure4Result is one configuration's measurement.
type Figure4Result struct {
	Cfg Figure4Config
	// ExportTimes is the per-iteration duration of p_s's Export call,
	// averaged over Runs (the quantity Figure 4 plots).
	ExportTimes []time.Duration
	// SlowStats are p_s's buffer statistics from the last run.
	SlowStats buffer.Stats
	// Settle estimates the iteration at which the export-time series reaches
	// its final level (the paper's "iterations to reach the optimal state").
	Settle int
	// Matched counts requests answered MATCH (should be Exports/MatchEvery).
	Matched int
	// Counters is the framework's registry at the end of the last run
	// (obsv.Registry.Snapshot): the control-plane message counts and p_s's
	// data-plane pipeline counters, read by name with obsv.Sum.
	Counters map[string]float64
	// PeakBufferedBytes is the largest framework buffer p_s held at any
	// export (last run) — the quantity behind the paper's future-work
	// concern about finite buffer space.
	PeakBufferedBytes int64
	// Frames holds the coalescing layer's counters of the last run (zero
	// unless Cfg.Coalesce).
	Frames transport.FrameStats
	// ImportChecksum sums every value program U imported (last run, ranks in
	// order). The matched versions and their contents are deterministic for
	// a given configuration, so two runs that match identically — coalesced
	// or not — produce the same checksum.
	ImportChecksum float64
}

// slowRank returns the rank playing p_s (the last exporter process; its
// block is the bottom-right quadrant, so only the importer processes owning
// the last rows wait for it).
func (c Figure4Config) slowRank() int { return c.ExporterProcs - 1 }

// validate rejects configurations the model cannot run.
func (c Figure4Config) validate() error {
	if c.ExporterProcs%2 != 0 || c.ExporterProcs < 2 {
		return fmt.Errorf("harness: exporter procs %d (need an even count for the 2xK grid)", c.ExporterProcs)
	}
	if c.GridN < 4 || c.Exports < c.MatchEvery || c.MatchEvery < 2 {
		return fmt.Errorf("harness: degenerate figure-4 config %+v", c)
	}
	if c.ImporterProcs < 1 || c.ImporterProcs > c.GridN {
		return fmt.Errorf("harness: importer procs %d for grid %d", c.ImporterProcs, c.GridN)
	}
	if c.Runs < 1 {
		return fmt.Errorf("harness: runs %d", c.Runs)
	}
	return nil
}

// work simulates a computation phase of duration d by sleeping. Sleeping —
// rather than busy-waiting — matters on small machines: the goroutine
// "processes" share real cores with the framework's control loops, and a
// busy-wait would starve them (Go preempts non-cooperative goroutines only
// at ~10ms granularity), destroying the timing dynamics the benchmark
// studies. A sleeping process still takes d wall-clock time per iteration
// on average, which is all the paper's speed relationships depend on: when
// no goroutine is runnable the runtime waits in epoll, whose timeout is whole
// milliseconds, so a 200µs sleep on an idle machine lasts 1ms, and each
// phase is shortened by what the process's earlier ones overslept (*over).
func work(d time.Duration, over *time.Duration) {
	if d -= *over; d <= 0 {
		*over = -d
		return
	}
	start := time.Now()
	time.Sleep(d)
	*over = time.Since(start) - d
}

// neighborSync exchanges an empty token with the adjacent ranks, the
// synchronization pattern a row-band stencil solver's halo swap induces.
func neighborSync(c interface {
	Rank() int
	Size() int
	Send(to int, tag string, payload []byte) error
	Recv(from int, tag string) ([]byte, error)
}, step int) error {
	tag := fmt.Sprintf("sync:%d", step)
	r, n := c.Rank(), c.Size()
	if r > 0 {
		if err := c.Send(r-1, tag, nil); err != nil {
			return err
		}
	}
	if r < n-1 {
		if err := c.Send(r+1, tag, nil); err != nil {
			return err
		}
	}
	if r > 0 {
		if _, err := c.Recv(r-1, tag); err != nil {
			return err
		}
	}
	if r < n-1 {
		if _, err := c.Recv(r+1, tag); err != nil {
			return err
		}
	}
	return nil
}

// RunFigure4 executes one configuration and returns the averaged series.
func RunFigure4(cfg Figure4Config) (*Figure4Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	runs := make([][]time.Duration, 0, cfg.Runs)
	var last *Figure4Result
	for r := 0; r < cfg.Runs; r++ {
		res, err := runFigure4Once(cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res.ExportTimes)
		last = res
	}
	last.ExportTimes = meanSeries(runs)
	last.Settle = settleIteration(last.ExportTimes, cfg.MatchEvery, 1.5)
	return last, nil
}

// figure4TestNetwork, when non-nil, overrides the transport of
// runFigure4Once — a hook for tests that instrument the traffic.
var figure4TestNetwork transport.Network

// runFigure4Once builds the F/U coupling and runs the workload, returning
// the run's own export-time series.
func runFigure4Once(cfg Figure4Config) (*Figure4Result, error) {
	coupling := &config.Config{
		Programs: []config.Program{
			{Name: "F", Cluster: "local", Binary: "builtin", Procs: cfg.ExporterProcs},
			{Name: "U", Cluster: "local", Binary: "builtin", Procs: cfg.ImporterProcs},
		},
		Connections: []config.Connection{{
			Export:    config.Endpoint{Program: "F", Region: "f"},
			Import:    config.Endpoint{Program: "U", Region: "f"},
			Policy:    match.REGL,
			Tolerance: cfg.Tolerance,
		}},
	}
	opts := core.Options{
		BuddyHelp: cfg.BuddyHelp,
		Timeout:   5 * time.Minute,
		Obsv:      cfg.Obsv,
	}
	// The run composes its own stack (transport, "The stack"): backend,
	// then the injector, then coalescing.
	net := figure4TestNetwork
	if net == nil {
		net = transport.NewMemNetwork()
		if cfg.NetLatency > 0 {
			net = transport.NewFaultNetwork(net, transport.FaultConfig{Latency: cfg.NetLatency, Jitter: cfg.NetLatency / 10})
		}
	}
	var coalescing *transport.CoalescingNetwork
	if cfg.Coalesce {
		coalescing = transport.NewCoalescingNetwork(net, transport.CoalesceConfig{})
		net = coalescing
	}
	opts.Network = net
	fw, err := core.New(coupling, opts)
	if err != nil {
		return nil, err
	}
	defer fw.Close()

	expLayout, err := decomp.NewBlock2D(cfg.GridN, cfg.GridN, 2, cfg.ExporterProcs/2)
	if err != nil {
		return nil, err
	}
	impLayout, err := decomp.NewRowBlock(cfg.GridN, cfg.GridN, cfg.ImporterProcs)
	if err != nil {
		return nil, err
	}
	progF, progU := fw.MustProgram("F"), fw.MustProgram("U")
	if err := progF.DefineRegion("f", expLayout); err != nil {
		return nil, err
	}
	if err := progU.DefineRegion("f", impLayout); err != nil {
		return nil, err
	}
	if err := fw.Start(); err != nil {
		return nil, err
	}

	slow := cfg.slowRank()
	series := make([]time.Duration, 0, cfg.Exports)
	var peakBuffered int64
	requests := cfg.Exports / cfg.MatchEvery
	matched := make([]int, cfg.ImporterProcs)
	sums := make([]float64, cfg.ImporterProcs)

	total := cfg.ExporterProcs + cfg.ImporterProcs
	errs := make(chan error, total)

	// Program F: exports f at timestamps k+0.6 (k = 1..Exports); p_s does
	// extra work per iteration.
	for r := 0; r < cfg.ExporterProcs; r++ {
		go func(r int) {
			p := progF.Process(r)
			block, err := p.Block("f")
			if err != nil {
				errs <- err
				return
			}
			data := make([]float64, block.Area())
			for i := range data {
				data[i] = float64(i)
			}
			compute := cfg.FastWork
			if r == slow {
				compute = cfg.SlowWork
			}
			var over time.Duration
			for k := 1; k <= cfg.Exports; k++ {
				// The "computation" part of the iteration. Touch the data so
				// the export genuinely snapshots fresh values.
				data[k%len(data)] = float64(k)
				work(compute, &over)
				ts := float64(k) + 0.6
				start := time.Now()
				if err := p.Export("f", ts, data); err != nil {
					errs <- err
					return
				}
				if r == slow {
					series = append(series, time.Since(start))
					if held, err := p.BufferedBytes("f"); err == nil && held > peakBuffered {
						peakBuffered = held
					}
				}
			}
			errs <- nil
		}(r)
	}

	// Program U: imports f at timestamps 20, 40, ... and then computes.
	uWork := cfg.ImporterWork / time.Duration(cfg.ImporterProcs)
	for r := 0; r < cfg.ImporterProcs; r++ {
		go func(r int) {
			p := progU.Process(r)
			block, err := p.Block("f")
			if err != nil {
				errs <- err
				return
			}
			dst := make([]float64, block.Area())
			var over time.Duration
			for j := 1; j <= requests; j++ {
				res, err := p.Import("f", float64(j*cfg.MatchEvery), dst)
				if err != nil {
					errs <- err
					return
				}
				if res.Matched {
					matched[r]++
					for _, v := range dst {
						sums[r] += v
					}
				}
				work(uWork, &over)
				if cfg.SyncImporter {
					// The halo-exchange synchronization of a real stencil
					// solver: a token swap with the neighboring ranks, so
					// adjacent ranks stay within one iteration of each
					// other while distant ranks may drift.
					if err := neighborSync(p.Comm(), j); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(r)
	}

	deadline := time.After(10 * time.Minute)
	var firstErr error
	for i := 0; i < total; i++ {
		select {
		case err := <-errs:
			if err != nil && firstErr == nil {
				firstErr = err
				fw.Close() // abort the remaining processes promptly
			}
		case <-deadline:
			return nil, fmt.Errorf("harness: figure-4 run timed out (%s)", cfg.Name)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := fw.Err(); err != nil {
		return nil, err
	}

	stats, err := progF.Process(slow).ExportStats("f")
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{
		Cfg:               cfg,
		ExportTimes:       series,
		SlowStats:         stats["U.f"].Stats,
		Matched:           matched[0],
		Counters:          fw.Obsv().Registry.Snapshot(),
		PeakBufferedBytes: peakBuffered,
	}
	for _, s := range sums {
		out.ImportChecksum += s
	}
	if coalescing != nil {
		out.Frames = coalescing.Stats()
	}
	return out, nil
}

// meanSeries averages the runs pointwise (the paper reports the mean of six
// runs per configuration), truncated to the shortest run; no runs, no mean.
func meanSeries(runs [][]time.Duration) []time.Duration {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs[1:] {
		n = min(n, len(r))
	}
	out := make([]time.Duration, n)
	for i := range out {
		for _, r := range runs {
			out[i] += r[i]
		}
		out[i] /= time.Duration(len(runs))
	}
	return out
}

// Window returns the mean of s over iterations [lo, hi), clamped to the
// series (0 when that is empty); Window(s, 0, len(s)) is the run mean.
func Window(s []time.Duration, lo, hi int) time.Duration {
	lo, hi = max(lo, 0), min(hi, len(s))
	if lo >= hi {
		return 0
	}
	var t time.Duration
	for _, d := range s[lo:hi] {
		t += d
	}
	return t / time.Duration(hi-lo)
}

// settleIteration estimates when s reaches its settled (final) level: the
// first iteration from which every later window-wide mean stays within
// factor of the final window's mean — the paper's "iterations needed to
// reach the optimal state" (~400 for the 16-process importer, ~25 for 32).
// It returns len(s) when s never settles.
func settleIteration(s []time.Duration, window int, factor float64) int {
	n := len(s)
	if n == 0 || window <= 0 || window > n {
		return n
	}
	final := max(float64(Window(s, n-window, n)), 1)
	settle := n
	for i := n - window; i >= 0 && float64(Window(s, i, i+window)) <= final*factor; i-- {
		settle = i
	}
	return settle
}
