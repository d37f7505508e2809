package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/testutil"
)

// chromeDump decodes a WriteChromeTrace output into its event list.
func chromeDump(t *testing.T, tr *obsv.Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	return doc.TraceEvents
}

// TestScenarioSpanRoundTrip replays every paper scenario and checks the
// Chrome trace round trip of its ring: every figure line becomes one
// well-formed X event on the exporter lane, carrying the line as its detail.
func TestScenarioSpanRoundTrip(t *testing.T) {
	for _, fig := range []string{"5", "7", "8"} {
		sc, err := RunScenario(fig)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		lines := sc.Lines()
		var details []string
		for _, ev := range chromeDump(t, sc.Tracer) {
			if ev["ph"] != "X" {
				continue
			}
			if ev["pid"] != float64(1) || ev["tid"] != float64(2) || !strings.HasPrefix(ev["name"].(string), "fig.") {
				t.Errorf("figure %s: X event %v is not a figure line on the exporter lane", fig, ev)
			}
			details = append(details, ev["args"].(map[string]any)["detail"].(string))
		}
		if len(details) != len(lines) {
			t.Fatalf("figure %s: %d X events for %d figure lines", fig, len(details), len(lines))
		}
		for i, d := range details {
			if !strings.HasSuffix(lines[i], " "+d) {
				t.Errorf("figure %s: X event %d carries %q, line is %q", fig, i, d, lines[i])
			}
		}
	}
}

// TestFigure4Observability is the acceptance run: a Figure-4 coupling with a
// tracing observer served over HTTP must expose well-formed Prometheus
// metrics, a Perfetto-loadable trace whose request flows cross the F/U
// process boundary, and a /statusz with per-connection pipeline state.
func TestFigure4Observability(t *testing.T) {
	verify := testutil.CheckGoroutines(t)
	obs := obsv.New(obsv.Config{Tracing: true})
	srv, err := obsv.Serve("127.0.0.1:0", obs)
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyFigure4(2, true)
	cfg.Exports = 101
	cfg.Obsv = obs
	res, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != cfg.Exports/cfg.MatchEvery {
		t.Errorf("matched %d of %d requests", res.Matched, cfg.Exports/cfg.MatchEvery)
	}
	// Every matched version went through the sender goroutine's queue.
	ps := []obsv.Label{obsv.L("program", "F"), obsv.L("rank", "3")}
	if obsv.Sum(res.Counters, "core.pipeline.jobs", ps...) == 0 || obsv.Sum(res.Counters, "core.data.sends", ps...) == 0 {
		t.Errorf("p_s data-plane pipeline counters empty")
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"core_import_calls", "core_data_sends", "core_export_skips",
		"buffer_pool_reuse", "core_pipeline_jobs",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/trace")), &doc); err != nil {
		t.Fatalf("/trace JSON does not parse: %v", err)
	}
	// A request flow must touch both programs: its s/t/f phases span at
	// least two distinct pids (U's rep mints the ID, F's processes resolve).
	flowPids := make(map[string]map[float64]bool)
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "s" || ph == "t" || ph == "f" {
			id, _ := ev["id"].(string)
			if flowPids[id] == nil {
				flowPids[id] = make(map[float64]bool)
			}
			flowPids[id][ev["pid"].(float64)] = true
		}
	}
	cross := 0
	for _, pids := range flowPids {
		if len(pids) >= 2 {
			cross++
		}
	}
	if cross == 0 {
		t.Errorf("no cross-process flow edges among %d flows", len(flowPids))
	}

	// /statusz sections live only while their framework is open (RunFigure4
	// closes its own), so drive a minimal live coupling for the status check.
	coupling := &config.Config{
		Programs: []config.Program{
			{Name: "F", Cluster: "local", Binary: "builtin", Procs: 1},
			{Name: "U", Cluster: "local", Binary: "builtin", Procs: 1},
		},
		Connections: []config.Connection{{
			Export:    config.Endpoint{Program: "F", Region: "f"},
			Import:    config.Endpoint{Program: "U", Region: "f"},
			Policy:    match.REGL,
			Tolerance: 2.5,
		}},
	}
	fw, err := core.New(coupling, core.Options{Obsv: obs, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := decomp.NewRowBlock(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.MustProgram("F").DefineRegion("f", layout); err != nil {
		t.Fatal(err)
	}
	if err := fw.MustProgram("U").DefineRegion("f", layout); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 64)
	exp := fw.MustProgram("F").Process(0)
	for k := 1; k <= 6; k++ {
		if err := exp.Export("f", float64(k)+0.6, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.MustProgram("U").Process(0).Import("f", 2, data); err != nil {
		t.Fatal(err)
	}

	statusz := get("/statusz")
	for _, want := range []string{"coupling", "depth=", "stall="} {
		if !strings.Contains(statusz, want) {
			t.Errorf("/statusz missing %q:\n%s", want, statusz)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	verify()
}
