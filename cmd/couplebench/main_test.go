package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// smoke exercises each couplebench mode at a tiny scale.
func TestRunModes(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	svg := filepath.Join(t.TempDir(), "out.svg")
	fast, slow := 50*time.Microsecond, 200*time.Microsecond
	uwork := 2 * time.Millisecond

	if err := run("a", 16, 41, 20, 2.5, true, 1, fast, slow, uwork, csv, svg, false, "", false, "", "", "", ""); err != nil {
		t.Fatalf("figure a: %v", err)
	}
	if err := run("all", 64, 41, 20, 2.5, true, 1, fast, slow, uwork, "", "", false, "", false, "", "", "", ""); err != nil {
		t.Fatalf("figure all: %v", err)
	}
	if err := run("c", 64, 41, 20, 2.5, true, 1, fast, slow, uwork, "", "", true, "", false, "", "", "", ""); err != nil {
		t.Fatalf("tub: %v", err)
	}
	if err := run("", 64, 41, 20, 2.5, true, 1, fast, slow, uwork, "", "", false, "2,4", false, "", "", "", ""); err != nil {
		t.Fatalf("onset: %v", err)
	}
	if err := run("", 64, 41, 20, 0, true, 1, fast, slow, uwork, "", "", false, "", false, "1,5", "", "", ""); err != nil {
		t.Fatalf("ratio: %v", err)
	}
	if err := run("", 64, 41, 20, 2.5, true, 1, fast, slow, uwork, "", "", false, "", false, "", "0,1ms", "", ""); err != nil {
		t.Fatalf("latsweep: %v", err)
	}
}

// TestRunObservability runs one tiny figure with the introspection server
// and span tracing on, and checks the trace artifact is valid Chrome trace
// JSON and that the server and trace rings leak no goroutines.
func TestRunObservability(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	tr := filepath.Join(t.TempDir(), "trace.json")
	fast, slow := 50*time.Microsecond, 200*time.Microsecond
	if err := run("a", 16, 41, 20, 2.5, true, 1, fast, slow, 2*time.Millisecond,
		"", "", false, "", false, "", "", "127.0.0.1:0", tr); err != nil {
		t.Fatalf("figure a with observability: %v", err)
	}
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace artifact does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace artifact has no events")
	}
}

// TestRunScenarioFigures: -figure 5, 7 and 8 print the paper's
// line-by-line scenario traces, numbered, with their buffer statistics.
func TestRunScenarioFigures(t *testing.T) {
	for fig, want := range map[string]string{
		"5": "18  receive buddy-help {D@20, MATCH, D@19.6}.\n",
		"7": "8   export D@4.6, skip memcpy.\n",
		"8": "10  remove D@5.6.\n",
	} {
		var out strings.Builder
		if err := printScenario(&out, fig); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		text := out.String()
		if !strings.HasPrefix(text, "=== Figure "+fig+" ===\n1   export D@1.6, call memcpy.\n") ||
			!strings.Contains(text, want) || !strings.Contains(text, " memcpys, ") {
			t.Errorf("figure %s output lacks %q:\n%s", fig, want, text)
		}
		if err := run(fig, 0, 0, 0, 0, false, 0, 0, 0, 0, "", "", false, "", false, "", "", "", ""); err != nil {
			t.Errorf("run -figure %s: %v", fig, err)
		}
	}
	if err := printScenario(io.Discard, "6"); err == nil {
		t.Error("unknown scenario figure accepted")
	}
}

func TestSparkline(t *testing.T) {
	s := []time.Duration{1, 1, 1, 1, 100, 100, 100, 100}
	sp := []rune(sparkline(s, 4))
	if len(sp) != 4 || sp[0] >= sp[3] {
		t.Errorf("sparkline %q: want 4 increasing runes", string(sp))
	}
	if sparkline(nil, 10) != "" || len([]rune(sparkline(s, 100))) != len(s) {
		t.Error("sparkline width not clamped to the series")
	}
}

// csvResult is a Figure4Result carrying only what writeCSV reads.
func csvResult(name string, ns ...time.Duration) *harness.Figure4Result {
	return &harness.Figure4Result{Cfg: harness.Figure4Config{Name: name}, ExportTimes: ns}
}

// TestWriteCSV pins the multi-series CSV: one column per configuration.
func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := writeCSV(&sb, []*harness.Figure4Result{csvResult("a", 1, 2), csvResult("b", 3, 4, 5)}); err != nil {
		t.Fatal(err)
	}
	if want := "iteration,a_ns,b_ns\n0,1,3\n1,2,4\n"; sb.String() != want {
		t.Errorf("csv %q, want %q", sb.String(), want)
	}
	if err := writeCSV(&sb, nil); err != nil {
		t.Errorf("no-series csv: %v", err)
	}
}

// TestWriteCSVShortenedRuns pins the truncation contract: rows stop at the
// shortest series, never indexing past a short one.
func TestWriteCSVShortenedRuns(t *testing.T) {
	var sb strings.Builder
	if err := writeCSV(&sb, []*harness.Figure4Result{csvResult("a", 1, 2, 3, 4), csvResult("b", 9)}); err != nil {
		t.Fatal(err)
	}
	if want := "iteration,a_ns,b_ns\n0,1,9\n"; sb.String() != want {
		t.Errorf("csv %q, want header plus one row truncated to the shortest series", sb.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("z", 16, 41, 20, 2.5, true, 1, 0, 0, 0, "", "", false, "", false, "", "", "", ""); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run("", 64, 41, 20, 2.5, true, 1, 0, 0, 0, "", "", false, "x", false, "", "", "", ""); err == nil {
		t.Error("bad onset accepted")
	}
	if err := run("", 64, 41, 20, 2.5, true, 1, 0, 0, 0, "", "", false, "", false, "y", "", "", ""); err == nil {
		t.Error("bad ratio accepted")
	}
	if err := run("", 64, 41, 20, 2.5, true, 1, 0, 0, 0, "", "", false, "", false, "", "zz", "", ""); err == nil {
		t.Error("bad latsweep accepted")
	}
}

// TestCoupleflightDecodesDumps writes two programs' span rings the way a
// crashing distributed run does (one tracer per program on one clock,
// Tracer.DumpFile) and decodes them through the coupleflight subcommand into
// one merged, clock-ordered timeline of their flt.* spans.
func TestCoupleflightDecodesDumps(t *testing.T) {
	dir := t.TempDir()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	trF := obsv.NewTracer(16, clk)
	clk.Advance(time.Millisecond) // the programs started apart: epochs differ
	trU := obsv.NewTracer(16, clk)
	for _, step := range []struct {
		ring *obsv.Ring
		sp   obsv.Span
	}{
		{trF.Ring("F", 1), obsv.Span{Name: "flt.export-stall", Dur: 1500, Detail: "F.f>U.f"}},
		{trU.Ring("U", 0), obsv.Span{Name: "import", Dur: 100}}, // not a flight event
		{trF.Ring("F", 0), obsv.Span{Name: "flt.peer-down", Detail: "U"}},
		{trU.Ring("U", -1), obsv.Span{Name: "flt.peer-down", Detail: "F"}},
	} {
		step.sp.TS = step.ring.Now()
		step.ring.Record(step.sp)
		clk.Advance(time.Millisecond)
	}
	var paths []string
	for _, tr := range []*obsv.Tracer{trU, trF} {
		path, err := tr.DumpFile(dir, "test")
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var out strings.Builder
	if err := runCoupleflight(&out, paths); err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && !strings.HasPrefix(line, "#") {
			lanes = append(lanes, f[1]+" "+f[2])
		}
	}
	want := []string{"F:1 flt.export-stall", "F:0 flt.peer-down", "U:rep flt.peer-down"}
	if strings.Join(lanes, ", ") != strings.Join(want, ", ") {
		t.Errorf("merged timeline lanes %q, want %q\n%s", lanes, want, out.String())
	}
	if !strings.Contains(out.String(), "2.000ms  F:0") {
		t.Errorf("F:0's span is not 2 ms after the first:\n%s", out.String())
	}

	if err := runCoupleflight(&out, nil); err == nil {
		t.Error("no dump paths accepted")
	}
	if err := runCoupleflight(&out, []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing dump accepted")
	}
}
