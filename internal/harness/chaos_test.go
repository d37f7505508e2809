package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dst"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// The chaos and recovery tests run the shared scenario script (package dst,
// scenario.go) on the wall clock. What they add to the virtual-clock sweeps
// is the real thing below the reliable layer — FaultNetwork's seeded drops,
// delays and connection resets over goroutine scheduling, and real sockets —
// under every invariant the script checks.

// chaosWorkload is the laptop-sized chaos exchange.
func chaosWorkload() dst.Workload {
	return dst.Workload{
		GridN: 16, ExpProcs: 2, ImpProcs: 2,
		Steps: 60, MatchEvery: 10, Tolerance: 2.5,
		Heartbeat: 250 * time.Millisecond,
		Resend:    10 * time.Millisecond,
		Timeout:   60 * time.Second,
	}
}

// chaosFaults is the fault plan of one seed of the chaos matrix.
func chaosFaults(seed int64) transport.FaultConfig {
	return transport.FaultConfig{
		Seed:       seed,
		Drop:       0.2,
		DelayProb:  0.2,
		MaxDelay:   2 * time.Millisecond,
		ResetEvery: 97,
	}
}

// runChaos runs wl over FaultNetwork+mem under a watchdog the length of the
// workload's own timeout: the run completes exactly or fails with a typed
// error naming the seed and the injected faults; it never hangs.
func runChaos(t *testing.T, wl dst.Workload, faults transport.FaultConfig) *dst.Result {
	t.Helper()
	defer testutil.CheckGoroutines(t)()
	env := dst.FaultEnv(faults, wl.Timeout)
	defer env.Close()
	res, err := wl.Exchange(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := wl.ImpProcs * wl.Steps / wl.MatchEvery; res.Matched != want {
		t.Errorf("matched %d of %d requests", res.Matched, want)
	}
	return res
}

// TestChaos drives the coupled run over a deterministically faulty network
// for a fixed seed matrix: every seed must complete with exact match results
// and bit-correct data, no hangs, and no leaked goroutines. CI runs this
// under -race with -count=3.
func TestChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := runChaos(t, chaosWorkload(), chaosFaults(seed))
			if res.Dropped == 0 && res.Delayed == 0 {
				t.Errorf("fault layer injected nothing: %+v", res.Traffic)
			}
			t.Logf("seed %d: %d matches, digest %#x over %+v", seed, res.Matched, res.Digest, res.Traffic)
		})
	}
}

// TestChaosOrderingInvariants races the async export pipeline against
// randomized importer delays and asserts the data plane's ordering
// guarantees at the transport boundary (the script's Checker, on in every
// run): per-connection responses leave for the rep in ReqID order (pendings
// increasing, decisions increasing, no PENDING after its decision) and
// TransferDone is applied exactly once per send. The jitter shifts every
// request to an arbitrary point of the exporters' pipelines, so resolutions
// race fresh requests on the queue.
func TestChaosOrderingInvariants(t *testing.T) {
	for _, seed := range []int64{1, 4, 9, 16, 25} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wl := chaosWorkload()
			wl.Jitter = 3 * time.Millisecond
			runChaos(t, wl, chaosFaults(seed))
		})
	}
}

// TestChaosHeavyLoss cranks the drop rate up: the run gets slower but must
// still complete exactly.
func TestChaosHeavyLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy-loss chaos run in -short mode")
	}
	wl, faults := chaosWorkload(), chaosFaults(13)
	wl.Steps = 30
	faults.Drop = 0.45
	if res := runChaos(t, wl, faults); res.Dropped == 0 {
		t.Error("no drops at 45% loss")
	}
}
