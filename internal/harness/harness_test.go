package harness

import (
	"strings"
	"testing"
	"time"
)

// tinyFigure4 is a CI-sized configuration: small grid, short run, with the
// same speed relationships as the paper's setup.
func tinyFigure4(importerProcs int, buddy bool) Figure4Config {
	return Figure4Config{
		Name:          "tiny",
		GridN:         32,
		ExporterProcs: 4,
		ImporterProcs: importerProcs,
		Exports:       201,
		MatchEvery:    20,
		Tolerance:     2.5,
		BuddyHelp:     buddy,
		FastWork:      200 * time.Microsecond,
		SlowWork:      time.Millisecond,
		ImporterWork:  4 * time.Millisecond, // 2ms per proc << the 20ms cycle of p_s
		Runs:          1,
	}
}

func TestFigure4ConfigValidation(t *testing.T) {
	bad := tinyFigure4(2, true)
	bad.ExporterProcs = 3
	if _, err := RunFigure4(bad); err == nil {
		t.Error("odd exporter procs accepted")
	}
	bad = tinyFigure4(2, true)
	bad.Exports = 5
	if _, err := RunFigure4(bad); err == nil {
		t.Error("exports < matchEvery accepted")
	}
	bad = tinyFigure4(2, true)
	bad.Runs = 0
	if _, err := RunFigure4(bad); err == nil {
		t.Error("zero runs accepted")
	}
	bad = tinyFigure4(64, true)
	if _, err := RunFigure4(bad); err == nil {
		t.Error("more importer procs than rows accepted")
	}
}

// TestFigure4FastImporter: with a fast importer and buddy-help, p_s reaches
// the optimal state — its tail export times collapse to near zero and only
// matched objects are copied in the steady state.
func TestFigure4FastImporter(t *testing.T) {
	res, err := RunFigure4(tinyFigure4(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != res.Cfg.Exports/res.Cfg.MatchEvery {
		t.Errorf("matched %d of %d requests", res.Matched, res.Cfg.Exports/res.Cfg.MatchEvery)
	}
	if n := len(res.ExportTimes); n != res.Cfg.Exports {
		t.Fatalf("series length %d, want %d", n, res.Cfg.Exports)
	}
	// The deterministic signal of the optimal state: after the startup
	// transient only matched objects are copied, so memcpys stay far below
	// the export count and most exports are skipped. (Wall-clock comparisons
	// are too noisy under -race on small machines; the copy/skip counts are
	// exact.)
	st := res.SlowStats
	if st.Copies > res.Cfg.Exports/4 {
		t.Errorf("%d of %d exports copied; optimal state not reached", st.Copies, res.Cfg.Exports)
	}
	if st.Skips < res.Cfg.Exports/2 {
		t.Errorf("only %d of %d exports skipped", st.Skips, res.Cfg.Exports)
	}
	if st.Sends != res.Matched {
		t.Errorf("sends %d, matched %d", st.Sends, res.Matched)
	}
}

// TestFigure4SlowImporter: with a slow importer (the paper's U=4 case) every
// export is buffered and the series stays flat.
func TestFigure4SlowImporter(t *testing.T) {
	cfg := tinyFigure4(2, true)
	cfg.Exports = 101
	cfg.ImporterWork = 120 * time.Millisecond // 60ms per proc >> p_s's ~21ms cycle
	res, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SlowStats
	// The very first request (issued before U's first compute phase) may
	// enable skips inside its own region; every later export must be
	// buffered because requests trail far behind.
	if st.Skips > cfg.MatchEvery {
		t.Errorf("slow importer but %d skips (should buffer nearly everything)", st.Skips)
	}
	if st.Copies < cfg.Exports-cfg.MatchEvery {
		t.Errorf("copies %d, want >= %d", st.Copies, cfg.Exports-cfg.MatchEvery)
	}
}

// TestFigure4BuddyAblation: buddy-help reduces p_s's copies and T_ub while
// transferring the same matches.
func TestFigure4BuddyAblation(t *testing.T) {
	res, err := RunTub(tinyFigure4(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.With.Matched != res.Without.Matched {
		t.Errorf("matched differ: %d vs %d", res.With.Matched, res.Without.Matched)
	}
	if res.CopiesSaved() <= 0 {
		t.Errorf("buddy-help saved %d copies", res.CopiesSaved())
	}
	if res.With.SlowStats.UnnecessaryCopies > res.Without.SlowStats.UnnecessaryCopies {
		t.Errorf("buddy-help increased unnecessary copies: %d vs %d",
			res.With.SlowStats.UnnecessaryCopies, res.Without.SlowStats.UnnecessaryCopies)
	}
	if res.With.SlowStats.Sends != res.Without.SlowStats.Sends {
		t.Errorf("sends differ: %d vs %d", res.With.SlowStats.Sends, res.Without.SlowStats.Sends)
	}
}

// TestFigure4OptimalStateTi: in the steady state with buddy-help, the
// per-request unnecessary buffering time T_i drops to zero (Figure 6).
func TestFigure4OptimalStateTi(t *testing.T) {
	res, err := RunFigure4(tinyFigure4(4, true))
	if err != nil {
		t.Fatal(err)
	}
	per := res.SlowStats.PerRequest
	if len(per) == 0 {
		t.Fatal("no per-request stats")
	}
	// The last few regions must be copy-free for p_s.
	tail := per[len(per)-3:]
	for i, pr := range tail {
		if pr.UnnecessaryCopies != 0 {
			t.Errorf("tail region %d: %d unnecessary copies (T_i > 0 in optimal state)",
				i, pr.UnnecessaryCopies)
		}
	}
}

// TestOptimalStateOnsetSweep: more importer processes -> the optimal state
// is reached no later (the Figure 4(c) vs 4(d) comparison).
func TestOptimalStateOnsetSweep(t *testing.T) {
	base := tinyFigure4(2, true)
	base.Exports = 161
	points, err := RunOptimalStateOnset(base, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %v", points)
	}
	for _, pt := range points {
		if pt.MeanExport <= 0 {
			t.Errorf("U=%d: zero mean export time", pt.ImporterProcs)
		}
	}
}

func TestScenarioFigure5Harness(t *testing.T) {
	sc, err := ScenarioFigure5()
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(sc.Lines(), "\n")
	for _, want := range []string{
		"export D@14.6, call memcpy.",
		"receive request for D@20.",
		"reply {D@20, PENDING, D@14.6}.",
		"remove D@1.6, ..., D@14.6.",
		"receive buddy-help {D@20, MATCH, D@19.6}.",
		"export D@15.6, skip memcpy.",
		"export D@18.6, skip memcpy.",
		"export D@19.6, call memcpy.",
		"send D@19.6 out.",
		"export D@20.6, call memcpy.",
		"receive request for D@40.",
		"remove D@19.6, ..., D@31.6.",
		"receive buddy-help {D@40, MATCH, D@39.6}.",
		"export D@38.6, skip memcpy.",
		"send D@39.6 out.",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("figure 5 trace missing %q\n%s", want, text)
		}
	}
	// 4 skips in the first round, 7 in the second: T_i non-increasing.
	if sc.Stats.Sends != 2 {
		t.Errorf("sends %d", sc.Stats.Sends)
	}
}

func TestScenarioFigure7vs8(t *testing.T) {
	with, err := ScenarioFigure7()
	if err != nil {
		t.Fatal(err)
	}
	without, err := ScenarioFigure8()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7 (buddy-help): exports 4.6-8.6 skipped; only 1.6-3.6 + the
	// match 9.6 + 10.6 copied.
	if with.Stats.Copies != 5 || with.Stats.Skips != 5 {
		t.Errorf("figure 7 copies/skips = %d/%d, want 5/5", with.Stats.Copies, with.Stats.Skips)
	}
	// Figure 8 (no buddy-help): only 4.6 skipped; every candidate copied.
	if without.Stats.Skips != 1 {
		t.Errorf("figure 8 skips = %d, want 1", without.Stats.Skips)
	}
	if without.Stats.Copies <= with.Stats.Copies {
		t.Errorf("figure 8 should copy more: %d vs %d", without.Stats.Copies, with.Stats.Copies)
	}
	// Both transfer exactly the match D@9.6.
	if with.Stats.Sends != 1 || without.Stats.Sends != 1 {
		t.Errorf("sends %d/%d", with.Stats.Sends, without.Stats.Sends)
	}
	if !strings.Contains(strings.Join(with.Lines(), "\n"), "export D@5.6, skip memcpy.") {
		t.Error("figure 7 lacks the buddy-enabled skip")
	}
	if !strings.Contains(strings.Join(without.Lines(), "\n"), "export D@5.6, call memcpy.") {
		t.Error("figure 8 lacks the candidate memcpy")
	}
}

func TestRunScenarioDispatch(t *testing.T) {
	for _, fig := range []string{"5", "7", "8"} {
		sc, err := RunScenario(fig)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if sc.Figure != fig || len(sc.Lines()) == 0 {
			t.Errorf("figure %s scenario empty", fig)
		}
	}
	if _, err := RunScenario("6"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestWork(t *testing.T) {
	var over time.Duration
	start := time.Now()
	work(2*time.Millisecond, &over)
	if time.Since(start) < 2*time.Millisecond {
		t.Error("work returned early")
	}
	work(0, &over) // must not hang
}

// series builds a duration series from nanosecond values.
func series(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, v := range ns {
		out[i] = time.Duration(v)
	}
	return out
}

func TestWindow(t *testing.T) {
	s := series(10, 20, 30, 40)
	if got := Window(s, 1, 3); got != 25 {
		t.Errorf("window = %v", got)
	}
	if got := Window(s, -5, 100); got != 25 {
		t.Errorf("clamped window = %v", got)
	}
	if got := Window(s, 3, 3); got != 0 {
		t.Errorf("empty window = %v", got)
	}
}

// TestRunMean: the whole-run mean is the window over every iteration, and
// the averaged series is a fresh slice, not an alias of any run.
func TestRunMean(t *testing.T) {
	s := series(10, 20, 30)
	if got := Window(s, 0, len(s)); got != 20 {
		t.Errorf("run mean = %v, want 20", got)
	}
	m := meanSeries([][]time.Duration{s})
	m[0] = 999
	if s[0] != 10 {
		t.Error("averaged series aliases its run")
	}
}

func TestEmptySeries(t *testing.T) {
	if got := Window(nil, 0, 0); got != 0 {
		t.Errorf("empty series mean = %v", got)
	}
	if got := meanSeries([][]time.Duration{nil}); len(got) != 0 {
		t.Errorf("mean of one empty run = %v, want empty", got)
	}
	if got := settleIteration(nil, 2, 1.5); got != 0 {
		t.Errorf("empty series settles at %d, want 0", got)
	}
}

// TestMeanSeries pins the pointwise averaging of repeated runs.
func TestMeanSeries(t *testing.T) {
	m := meanSeries([][]time.Duration{series(10, 20, 30), series(30, 40, 50, 60)})
	if len(m) != 3 || m[0] != 20 || m[2] != 40 {
		t.Errorf("mean %v, want [20 30 40]", m)
	}
	if got := meanSeries(nil); len(got) != 0 {
		t.Errorf("mean of no runs = %v, want empty", got)
	}
}

// TestMeanSeriesShortenedRuns pins the unequal-length contract: an
// error-shortened run truncates the mean to the shortest run, whichever
// position it arrives in, and an empty run empties it rather than panicking.
func TestMeanSeriesShortenedRuns(t *testing.T) {
	long, short := series(10, 20, 30, 40, 50), series(100, 200)
	for _, runs := range [][][]time.Duration{{long, short}, {short, long}, {long, short, series(1, 2, 3)}} {
		if n := len(meanSeries(runs)); n != len(short) {
			t.Fatalf("mean truncates to %d, want shortest run %d", n, len(short))
		}
	}
	if n := len(meanSeries([][]time.Duration{long, nil})); n != 0 {
		t.Fatalf("mean over an empty run has %d points, want 0", n)
	}
	if got := meanSeries([][]time.Duration{long}); len(got) != 5 || got[4] != 50 {
		t.Fatalf("single-run mean altered the data: %v", got)
	}
}

func TestSettleIteration(t *testing.T) {
	// A staircase that settles at iteration 60.
	var s []time.Duration
	for i := 0; i < 100; i++ {
		v := 100
		switch {
		case i >= 60:
			v = 10
		case i >= 30:
			v = 50
		}
		s = append(s, time.Duration(v))
	}
	if got := settleIteration(s, 10, 1.5); got < 55 || got > 65 {
		t.Errorf("settle at %d, want ~60", got)
	}
	// A flat series settles immediately.
	if got := settleIteration(series(5, 5, 5, 5, 5, 5), 2, 1.5); got != 0 {
		t.Errorf("flat settles at %d, want 0", got)
	}
	if got := settleIteration(nil, 2, 1.5); got != 0 {
		t.Errorf("empty series settles at %d, want 0", got)
	}
}
