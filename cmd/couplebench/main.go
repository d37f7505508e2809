// Command couplebench reproduces the paper's Figure 4 micro-benchmark: the
// per-iteration data-export time of the slowest process p_s of the forcing
// program F, coupled to importer programs U of 4, 8, 16 and 32 processes
// (configurations a-d), plus the buddy-help T_ub ablation (Equations (1)-(2))
// and the optimal-state-onset, tolerance-ratio and network-latency sweeps.
// It also replays the line-by-line scenario figures (Figure 5: a typical
// buddy-help run; Figure 7: buddy-help at tolerance 5.0; Figure 8: the same
// without buddy-help) against the framework's export pipeline.
// Performance numbers (per-layer costs, allocation, collective latencies) are
// not its business: `bash bench/run.sh` is the repository's one benchmark.
//
// Examples:
//
//	couplebench -figure all            # the four Figure 4 configurations
//	couplebench -figure c -csv c.csv   # one configuration + CSV series
//	couplebench -figure 5              # the Figure 5 scenario trace
//	couplebench -tub                   # buddy-help on/off ablation
//	couplebench -onset 2,4,8,16,32     # optimal-state onset sweep
//	couplebench coupleflight flight-*.json  # merge flight dumps into one timeline
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
	"repro/internal/obsv"
	"repro/internal/plot"
)

var figureProcs = map[string]int{"a": 4, "b": 8, "c": 16, "d": 32}

func main() {
	// Subcommand form: `couplebench coupleflight <flight.json>...` merges
	// flight dumps into one cross-rank timeline of their flt.* spans.
	if len(os.Args) > 1 && os.Args[1] == "coupleflight" {
		if err := runCoupleflight(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "couplebench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		figure   = flag.String("figure", "all", "Figure 4 configuration (a, b, c, d or all) or scenario figure (5, 7 or 8)")
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

// runCoupleflight is the `couplebench coupleflight <flight.json>...`
// decoder: it reads each flight dump (a Chrome trace from
// Framework.DumpFlight, dst.Checker.SetFlight or /trace) and writes the flt.*
// spans of all of them to w as one timeline ordered by the tracers' (virtual
// or wall) clock, one line per span: time since the first, lane, name,
// detail.
func runCoupleflight(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: couplebench coupleflight <flight.json>...")
	}
	dumps := make([]*obsv.Dump, 0, len(paths))
	for _, path := range paths {
		d, err := obsv.ReadDump(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s: %d spans, dumped: %s\n", path, len(d.Spans), d.Reason)
		dumps = append(dumps, d)
	}
	var flt []obsv.LaneSpan
	for _, sp := range obsv.MergeDumps(dumps...) {
		if strings.HasPrefix(sp.Name, "flt.") {
			flt = append(flt, sp)
		}
	}
	for _, sp := range flt {
		if _, err := fmt.Fprintf(w, "%12.3fms  %-8s %-16s %s\n", float64(sp.TS-flt[0].TS)/1e6, sp.Lane, sp.Name, sp.Detail); err != nil {
			return err
		}
	}
	return nil
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

	switch figure {
	case "5", "7", "8":
		return printScenario(os.Stdout, figure)
	}
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
			return fmt.Errorf("unknown figure %q (want a, b, c, d, all, 5, 7 or 8)", figure)
		}
		figures = []string{figure}
	}

	var results []*harness.Figure4Result
	for _, f := range figures {
		cfg := mk(figureProcs[f])
		cfg.Name = fmt.Sprintf("fig4%s-U%d", f, cfg.ImporterProcs)
		start := time.Now()
		res, err := harness.RunFigure4(cfg)
		if err != nil {
			return fmt.Errorf("figure 4(%s): %w", f, err)
		}
		printFigure(f, res, time.Since(start))
		results = append(results, res)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeCSV(f, results); err != nil {
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
		for _, res := range results {
			ps := plot.Series{Name: res.Cfg.Name}
			for i, d := range res.ExportTimes {
				ps.X = append(ps.X, float64(i))
				ps.Y = append(ps.Y, float64(d.Microseconds())/1000)
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
	s, every := res.ExportTimes, res.Cfg.MatchEvery
	st := res.SlowStats
	fmt.Printf("\nFigure 4(%s): importer U with %d processes (%s wall)\n", f, res.Cfg.ImporterProcs, elapsed.Round(time.Millisecond))
	fmt.Printf("  export time of p_s per iteration: %s\n", sparkline(s, 72))
	fmt.Printf("  head(0..%d) %v   tail %v   settle @ iteration %d\n",
		every, harness.Window(s, 0, every), harness.Window(s, len(s)-every, len(s)), res.Settle)
	fmt.Printf("  p_s buffer: %d exports, %d memcpys, %d skips, %d sends, %d unnecessary copies (T_ub %v)\n",
		st.Exports, st.Copies, st.Skips, st.Sends, st.UnnecessaryCopies, st.UnnecessaryTime.Round(time.Microsecond))
	count := func(name string, labels ...obsv.Label) float64 { return obsv.Sum(res.Counters, name, labels...) }
	pf, pu := obsv.L("program", "F"), obsv.L("program", "U")
	ps := []obsv.Label{pf, obsv.L("rank", strconv.Itoa(res.Cfg.ExporterProcs-1))}
	fmt.Printf("  p_s data plane: %.0f jobs, %.0f data sends, %.0f flushes, export stall %v, peak queue depth %.0f\n",
		count("core.pipeline.jobs", ps...), count("core.data.sends", ps...), count("core.pipeline.flushes", ps...),
		time.Duration(count("core.export.stall.ns", ps...)).Round(time.Microsecond), count("core.pipeline.peak.depth", ps...))
	fmt.Printf("  matched %d of %d requests\n", res.Matched, res.Cfg.Exports/every)
	fmt.Printf("  control plane: F forwarded %.0f, responses %.0f, answers %.0f, buddy %.0f, data msgs %.0f; U calls %.0f\n",
		count("core.requests.forwarded", pf), count("core.responses", pf), count("core.answers.sent", pf),
		count("core.buddy.messages", pf), count("core.data.sends", pf), count("core.import.calls", pu))
	fmt.Printf("  peak framework buffer on p_s: %.1f MiB\n", float64(res.PeakBufferedBytes)/(1<<20))
}

// sparkline renders s as a compact unicode plot of width buckets (bucket
// means), for eyeballing the Figure-4 shape in a terminal.
func sparkline(s []time.Duration, width int) string {
	width = min(width, len(s))
	if width <= 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	buckets := make([]float64, width)
	top := 0.0
	for b := range buckets {
		buckets[b] = float64(harness.Window(s, b*len(s)/width, (b+1)*len(s)/width))
		top = max(top, buckets[b])
	}
	out := make([]rune, width)
	for i, v := range buckets {
		out[i] = ramp[0]
		if top > 0 {
			out[i] = ramp[int(v/top*float64(len(ramp)-1))]
		}
	}
	return string(out)
}

// writeCSV emits one "<name>_ns" column of export times per result after
// an "iteration" column, truncated to the shortest series.
func writeCSV(w io.Writer, results []*harness.Figure4Result) error {
	var b strings.Builder
	b.WriteString("iteration")
	n := -1
	for _, res := range results {
		fmt.Fprintf(&b, ",%s_ns", res.Cfg.Name)
		if n < 0 || len(res.ExportTimes) < n {
			n = len(res.ExportTimes)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\n%d", i)
		for _, res := range results {
			fmt.Fprintf(&b, ",%d", res.ExportTimes[i].Nanoseconds())
		}
	}
	_, err := io.WriteString(w, b.String()+"\n")
	return err
}

// printScenario replays one of the paper's line-by-line scenario figures
// and prints the lines its export pipeline recorded.
func printScenario(w io.Writer, figure string) error {
	sc, err := harness.RunScenario(figure)
	if err != nil {
		return err
	}
	st := sc.Stats
	fmt.Fprintf(w, "=== Figure %s ===\n%s\n", sc.Figure, strings.Join(sc.Lines(), "\n"))
	fmt.Fprintf(w, "--- %d exports: %d memcpys, %d skips, %d sends, %d unnecessary copies (T_ub %v)\n\n",
		st.Exports, st.Copies, st.Skips, st.Sends, st.UnnecessaryCopies, st.UnnecessaryTime.Round(time.Nanosecond))
	return nil
}

func printTub(res *harness.TubResult) {
	fmt.Printf("T_ub ablation (U=%d, %d exports, match every %d):\n",
		res.Cfg.ImporterProcs, res.Cfg.Exports, res.Cfg.MatchEvery)
	row := func(name string, r *harness.Figure4Result) {
		st := r.SlowStats
		fmt.Printf("  %-10s memcpys %-6d skips %-6d unnecessary %-6d T_ub %-12v mean export %v\n",
			name, st.Copies, st.Skips, st.UnnecessaryCopies,
			st.UnnecessaryTime.Round(time.Microsecond), harness.Window(r.ExportTimes, 0, len(r.ExportTimes)))
	}
	row("buddy on", res.With)
	row("buddy off", res.Without)
	fmt.Printf("  buddy-help saved %d memcpys and %v of unnecessary buffering on p_s\n",
		res.CopiesSaved(), res.UnnecessarySaved().Round(time.Microsecond))
}
