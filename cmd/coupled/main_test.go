package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/testutil"
)

func writeCfg(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.cfg")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleProcess(t *testing.T) {
	cfg := writeCfg(t, "A local b 2\nB local b 2\n#\nA.x B.x REGL 2.5\n")
	if err := run(cfg, "", "", 16, 30, 10, true, false, 200*time.Millisecond, 0, "", 0, false, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunPipelineConfig(t *testing.T) {
	cfg := writeCfg(t, `
src local b 1
mid local b 2
out local b 1
#
src.a mid.a REGL 1.0
mid.b out.b REGL 1.0
`)
	if err := run(cfg, "", "", 8, 20, 5, true, false, 0, 0, "", 0, false, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadConfigPath(t *testing.T) {
	if err := run("/nonexistent/x.cfg", "", "", 8, 10, 5, true, false, 0, 0, "", 0, false, "", false, "", ""); err == nil {
		t.Error("missing config accepted")
	}
}

func TestRunProgramNeedsRouter(t *testing.T) {
	cfg := writeCfg(t, "A local b 1\nB local b 1\n#\nA.x B.x REGL 1\n")
	if err := run(cfg, "A", "", 8, 10, 5, true, false, 0, 0, "", 0, false, "", false, "", ""); err == nil {
		t.Error("-program without -router accepted")
	}
}

// TestRunWithObservability runs a coupling with the introspection server and
// span tracing on, checks the exit-time trace dump is valid Chrome trace
// JSON, and verifies the HTTP server and trace rings leak no goroutines.
func TestRunWithObservability(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := writeCfg(t, "A local b 2\nB local b 2\n#\nA.x B.x REGL 2.5\n")
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run(cfg, "", "", 16, 30, 10, true, false, 0, 0, "", 0, false, "127.0.0.1:0", true, out, ""); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace output does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace output has no events")
	}
}

// TestRunCheckpointRestore runs a coupling for 20 steps with checkpoints
// every 10, then restores from the checkpoint directory and resumes for the
// remaining 10 steps of a 30-step schedule.
func TestRunCheckpointRestore(t *testing.T) {
	cfg := writeCfg(t, "A local b 2\nB local b 2\n#\nA.x B.x REGL 2.5\n")
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run(cfg, "", "", 16, 20, 10, true, false, 0, 0, dir, 10, false, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "A.ckpt")); err != nil {
		t.Fatalf("no checkpoint written for A: %v", err)
	}
	if err := run(cfg, "", "", 16, 30, 10, true, false, 0, 0, dir, 10, true, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunRestoreNeedsDir(t *testing.T) {
	cfg := writeCfg(t, "A local b 1\nB local b 1\n#\nA.x B.x REGL 1\n")
	if err := run(cfg, "", "", 8, 10, 5, true, false, 0, 0, "", 0, true, "", false, "", ""); err == nil {
		t.Error("-restore without -checkpoint-dir accepted")
	}
}

func TestRolesOf(t *testing.T) {
	cfgPath := writeCfg(t, `
A local b 1
B local b 1
C local b 1
#
A.x B.x REGL 1
B.y C.y REGL 1
`)
	if err := run(cfgPath, "", "", 8, 20, 5, false, true, 0, 0, "", 0, false, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithDiag runs a coupling with coupling-aware diagnosis on (a board
// per program, flt.* spans on the rings, as -diag DIR implies -obsv-trace)
// and checks a clean run still completes and leaves no dumps behind (dumps
// are peer-death/SIGQUIT artifacts).
func TestRunWithDiag(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := writeCfg(t, "A local b 2\nB local b 2\n#\nA.x B.x REGL 2.5\n")
	dir := t.TempDir()
	if err := run(cfg, "", "", 16, 30, 10, true, false, 0, 0, "", 0, false, "", true, "", dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("clean diag run left %d files in flight dir", len(ents))
	}
}
