// Command couplebench reproduces the paper's Figure 4 micro-benchmark: the
// per-iteration data-export time of the slowest process p_s of the forcing
// program F, coupled to importer programs U of 4, 8, 16 and 32 processes
// (configurations a-d), plus the buddy-help T_ub ablation (Equations (1)-(2))
// and the optimal-state-onset, tolerance-ratio and network-latency sweeps.
// Performance numbers (per-layer costs, allocation, collective latencies) are
// not its business: `bash bench/run.sh` is the repository's one benchmark.
//
// Examples:
//
//	couplebench -figure all            # the four Figure 4 configurations
//	couplebench -figure c -csv c.csv   # one configuration + CSV series
//	couplebench -tub                   # buddy-help on/off ablation
//	couplebench -onset 2,4,8,16,32     # optimal-state onset sweep
//	couplebench coupleflight a.cpfl    # decode flight-recorder dumps
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/obsv/diag"
	"repro/internal/plot"
)

var figureProcs = map[string]int{"a": 4, "b": 8, "c": 16, "d": 32}

func main() {
	// Subcommand form: `couplebench coupleflight <dump.cpfl>...` decodes
	// flight-recorder dumps into one merged cross-rank timeline.
	if len(os.Args) > 1 && os.Args[1] == "coupleflight" {
		if err := runCoupleflight(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "couplebench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		figure   = flag.String("figure", "all", "Figure 4 configuration: a, b, c, d or all")
		gridN    = flag.Int("n", 256, "global array is n x n (paper: 1024)")
		exports  = flag.Int("exports", 1001, "number of exports (paper: 1001)")
		every    = flag.Int("every", 20, "one request per this many exports (paper: 20)")
		tol      = flag.Float64("tol", 2.5, "match tolerance (paper: 2.5, REGL)")
		buddy    = flag.Bool("buddy", true, "enable the buddy-help optimization")
		runs     = flag.Int("runs", 1, "runs to average (paper: 6)")
		fast     = flag.Duration("fast", 200*time.Microsecond, "per-export compute of the fast F processes")
		slow     = flag.Duration("slow", time.Millisecond, "per-export compute of the slow process p_s")
		uwork    = flag.Duration("uwork", 300*time.Millisecond, "program U's total per-iteration compute")
		csvPath  = flag.String("csv", "", "write the per-iteration series to this CSV file")
		svgPath  = flag.String("svg", "", "render the per-iteration series to this SVG file")
		tub      = flag.Bool("tub", false, "run the buddy-help on/off T_ub ablation instead")
		onset    = flag.String("onset", "", "comma-separated importer process counts for the optimal-state-onset sweep")
		syncImp  = flag.Bool("sync", false, "synchronize importer processes each iteration (models a real solver's halo exchange)")
		ratio    = flag.String("ratio", "", "comma-separated tolerances for the tolerance-ratio sweep (buddy on/off saving curve)")
		latsw    = flag.String("latsweep", "", "comma-separated one-way network latencies (e.g. 0,100us,1ms) for the latency ablation")
		obsvAddr = flag.String("obsv-addr", "",
			"serve live introspection of the figure run on this address: /metrics, /trace, /statusz, /debug/pprof (enables span tracing)")
		traceJSON = flag.String("trace-json", "",
			"write the figure run's protocol span trace as Chrome trace JSON to this file (enables span tracing)")
	)
	flag.Parse()

	if err := run(*figure, *gridN, *exports, *every, *tol, *buddy, *runs, *fast, *slow, *uwork, *csvPath, *svgPath, *tub, *onset, *syncImp, *ratio, *latsw, *obsvAddr, *traceJSON); err != nil {
		fmt.Fprintln(os.Stderr, "couplebench:", err)
		os.Exit(1)
	}
}

// runCoupleflight is the `couplebench coupleflight <dump.cpfl>...` decoder:
// it reads each flight dump and writes one merged timeline to w, ordered by
// the recorders' (virtual or wall) clock across programs and ranks.
func runCoupleflight(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: couplebench coupleflight <dump.cpfl>...")
	}
	dumps := make([]*diag.Dump, 0, len(paths))
	for _, path := range paths {
		d, err := diag.ReadDump(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dumps = append(dumps, d)
	}
	return diag.WriteTimeline(w, dumps...)
}

func baseConfig(procs, gridN, exports, every int, tol float64, buddy bool, runs int, fast, slow, uwork time.Duration, syncImp bool) harness.Figure4Config {
	cfg := harness.DefaultFigure4(procs)
	cfg.SyncImporter = syncImp
	cfg.GridN = gridN
	cfg.Exports = exports
	cfg.MatchEvery = every
	cfg.Tolerance = tol
	cfg.BuddyHelp = buddy
	cfg.Runs = runs
	cfg.FastWork = fast
	cfg.SlowWork = slow
	cfg.ImporterWork = uwork
	return cfg
}

func run(figure string, gridN, exports, every int, tol float64, buddy bool, runs int,
	fast, slow, uwork time.Duration, csvPath, svgPath string, tub bool, onset string, syncImp bool, ratio, latsw string,
	obsvAddr, traceJSON string) error {

	var obs *obsv.Observer
	if obsvAddr != "" || traceJSON != "" {
		obs = obsv.New(obsv.Config{Tracing: true})
	}
	if obsvAddr != "" {
		srv, err := obsv.Serve(obsvAddr, obs)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s (/metrics /trace /statusz /debug/pprof)\n", srv.Addr())
	}

	mk := func(procs int) harness.Figure4Config {
		cfg := baseConfig(procs, gridN, exports, every, tol, buddy, runs, fast, slow, uwork, syncImp)
		cfg.Obsv = obs
		return cfg
	}

	if latsw != "" {
		var lats []time.Duration
		for _, s := range strings.Split(latsw, ",") {
			s = strings.TrimSpace(s)
			if s == "0" {
				lats = append(lats, 0)
				continue
			}
			d, err := time.ParseDuration(s)
			if err != nil {
				return fmt.Errorf("bad -latsweep entry %q", s)
			}
			lats = append(lats, d)
		}
		points, err := harness.RunLatencySweep(mk(figureProcs["d"]), lats)
		if err != nil {
			return err
		}
		fmt.Println("network-latency ablation (buddy-help saving vs one-way latency):")
		fmt.Printf("%-10s %-14s %-16s %s\n", "latency", "memcpys(on)", "memcpys(off)", "saved")
		for _, pt := range points {
			fmt.Printf("%-10v %-14d %-16d %d\n", pt.Latency, pt.With.SlowStats.Copies, pt.Without.SlowStats.Copies, pt.CopiesSaved())
		}
		return nil
	}

	if ratio != "" {
		var tols []float64
		for _, s := range strings.Split(ratio, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -ratio entry %q", s)
			}
			tols = append(tols, v)
		}
		points, err := harness.RunRatioSweep(mk(figureProcs["d"]), tols)
		if err != nil {
			return err
		}
		fmt.Println("tolerance-ratio sweep (buddy-help saving vs region size / request spacing):")
		fmt.Printf("%-10s %-8s %-14s %-16s %-12s %s\n", "tolerance", "ratio", "memcpys(on)", "memcpys(off)", "saved", "T_ub(off)")
		for _, pt := range points {
			fmt.Printf("%-10g %-8.3g %-14d %-16d %-12.1f%% %v\n",
				pt.Tolerance, pt.Ratio, pt.CopiesWith, pt.CopiesWithout,
				100*pt.SavedFraction, pt.TubWithout.Round(time.Microsecond))
		}
		return nil
	}

	if onset != "" {
		var procs []int
		for _, s := range strings.Split(onset, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -onset entry %q", s)
			}
			procs = append(procs, v)
		}
		points, err := harness.RunOptimalStateOnset(mk(procs[0]), procs)
		if err != nil {
			return err
		}
		fmt.Println("optimal-state onset sweep (generalizes Figure 4(c) vs 4(d)):")
		fmt.Printf("%-8s %-12s %-14s %-14s\n", "U procs", "settle iter", "mean export", "tail export")
		for _, pt := range points {
			fmt.Printf("%-8d %-12d %-14v %-14v\n", pt.ImporterProcs, pt.Settle, pt.MeanExport, pt.TailExport)
		}
		return nil
	}

	if tub {
		cfg := mk(figureProcs["d"])
		if figure != "all" {
			if p, ok := figureProcs[figure]; ok {
				cfg = mk(p)
			}
		}
		res, err := harness.RunTub(cfg)
		if err != nil {
			return err
		}
		printTub(res)
		return nil
	}

	var figures []string
	if figure == "all" {
		figures = []string{"a", "b", "c", "d"}
	} else {
		if _, ok := figureProcs[figure]; !ok {
			return fmt.Errorf("unknown figure %q (want a, b, c, d or all)", figure)
		}
		figures = []string{figure}
	}

	var series []*metrics.Series
	for _, f := range figures {
		cfg := mk(figureProcs[f])
		cfg.Name = fmt.Sprintf("fig4%s-U%d", f, cfg.ImporterProcs)
		start := time.Now()
		res, err := harness.RunFigure4(cfg)
		if err != nil {
			return fmt.Errorf("figure 4(%s): %w", f, err)
		}
		printFigure(f, res, time.Since(start))
		series = append(series, res.ExportTimes)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := metrics.WriteCSVMulti(f, series...); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", csvPath)
	}
	if svgPath != "" {
		chart := plot.Chart{
			Title:  "Figure 4: data-export time of the slowest process p_s",
			XLabel: "iteration",
			YLabel: "export time (ms)",
		}
		for _, s := range series {
			ps := plot.Series{Name: s.Name}
			for i := 0; i < s.Len(); i++ {
				ps.X = append(ps.X, float64(i))
				ps.Y = append(ps.Y, float64(s.At(i).Microseconds())/1000)
			}
			chart.Series = append(chart.Series, ps)
		}
		svg, err := chart.SVG()
		if err != nil {
			return err
		}
		if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgPath)
	}
	if traceJSON != "" {
		f, err := os.Create(traceJSON)
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
		fmt.Printf("wrote %s (load in Perfetto or chrome://tracing)\n", traceJSON)
	}
	return nil
}

func printFigure(f string, res *harness.Figure4Result, elapsed time.Duration) {
	s := res.ExportTimes
	st := res.SlowStats
	fmt.Printf("\nFigure 4(%s): importer U with %d processes (%s wall)\n", f, res.Cfg.ImporterProcs, elapsed.Round(time.Millisecond))
	fmt.Printf("  export time of p_s per iteration: %s\n", s.Sparkline(72))
	fmt.Printf("  head(0..%d) %v   tail %v   settle @ iteration %d\n",
		res.Cfg.MatchEvery, s.Window(0, res.Cfg.MatchEvery),
		s.Window(s.Len()-res.Cfg.MatchEvery, s.Len()), res.Settle)
	fmt.Printf("  p_s buffer: %d exports, %d memcpys, %d skips, %d sends, %d unnecessary copies (T_ub %v)\n",
		st.Exports, st.Copies, st.Skips, st.Sends, st.UnnecessaryCopies, st.UnnecessaryTime.Round(time.Microsecond))
	pl := res.SlowPipeline
	fmt.Printf("  p_s data plane: %d jobs, %d data sends, %d flushes, export stall %v, peak queue depth %d\n",
		pl.Jobs, pl.DataSends, pl.Flushes, time.Duration(pl.ExportStallNanos).Round(time.Microsecond), pl.PeakQueueDepth)
	fmt.Printf("  matched %d of %d requests\n", res.Matched, res.Cfg.Exports/res.Cfg.MatchEvery)
	ep, ip := res.ExporterProto, res.ImporterProto
	fmt.Printf("  control plane: F forwarded %d, responses %d, answers %d, buddy %d, data msgs %d; U calls %d\n",
		ep.RequestsForwarded, ep.Responses, ep.AnswersSent, ep.BuddyMessages, ep.DataMessages, ip.ImportCalls)
	fmt.Printf("  peak framework buffer on p_s: %.1f MiB\n", float64(res.PeakBufferedBytes)/(1<<20))
}

func printTub(res *harness.TubResult) {
	fmt.Printf("T_ub ablation (U=%d, %d exports, match every %d):\n",
		res.Cfg.ImporterProcs, res.Cfg.Exports, res.Cfg.MatchEvery)
	row := func(name string, r *harness.Figure4Result) {
		st := r.SlowStats
		fmt.Printf("  %-10s memcpys %-6d skips %-6d unnecessary %-6d T_ub %-12v mean export %v\n",
			name, st.Copies, st.Skips, st.UnnecessaryCopies,
			st.UnnecessaryTime.Round(time.Microsecond), r.ExportTimes.Mean())
	}
	row("buddy on", res.With)
	row("buddy off", res.Without)
	fmt.Printf("  buddy-help saved %d memcpys and %v of unnecessary buffering on p_s\n",
		res.CopiesSaved(), res.UnnecessarySaved().Round(time.Microsecond))
}
