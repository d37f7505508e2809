package harness

import (
	"testing"
	"time"

	"repro/internal/dst"
	"repro/internal/testutil"
)

// recoveryWorkload is the laptop-sized kill-and-restart run: checkpoint at
// 20, crash after 23 — steps 21..23 are re-executed.
func recoveryWorkload() dst.Workload {
	return dst.Workload{
		GridN: 16, ExpProcs: 2, ImpProcs: 2,
		Steps: 30, CkptEvery: 5, CrashAfter: 23, Tolerance: 0.5,
		Heartbeat: 250 * time.Millisecond,
		Resend:    20 * time.Millisecond,
		Timeout:   60 * time.Second,
	}
}

// tcpEnv starts one pass's TCP router; the watchdog matches the workload's
// own timeout.
func tcpEnv() (*dst.Env, error) { return dst.TCPEnv(60 * time.Second) }

// TestRecoveryKillRestart is the kill-and-restart acceptance run over a real
// TCP router: the importer program is killed mid-run between two
// checkpoints, restarted from its last collective-sequence checkpoint, and
// the completed workload's import fingerprints — including the re-executed
// steps — must be byte-identical to a fault-free run without checkpointing.
// CI runs this under -race.
func TestRecoveryKillRestart(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	wl := recoveryWorkload()
	res, err := wl.KillRestart(tcpEnv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed == 0 {
		t.Error("crash point on the checkpoint schedule: no steps were re-executed")
	}
	if want := wl.Steps / wl.CkptEvery; res.Checkpoints != want {
		t.Errorf("importer took %d checkpoints, want %d", res.Checkpoints, want)
	}
	if want := wl.ImpProcs * (wl.Steps + res.Replayed); res.Matched != want {
		t.Errorf("matched %d imports, want %d", res.Matched, want)
	}
	t.Logf("steps %d, replayed %d, checkpoints %d, digest %#x", wl.Steps, res.Replayed, res.Checkpoints, res.Digest)
}

// TestRecoveryConfigValidation rejects schedules the comparison cannot
// interpret (crash before the first checkpoint, crash after the end).
func TestRecoveryConfigValidation(t *testing.T) {
	wl := recoveryWorkload()
	wl.CrashAfter = wl.Steps
	if _, err := wl.KillRestart(tcpEnv); err == nil {
		t.Error("crash at the final step accepted")
	}
	wl = recoveryWorkload()
	wl.CkptEvery = 0
	if _, err := wl.KillRestart(tcpEnv); err == nil {
		t.Error("zero checkpoint interval accepted")
	}
}
