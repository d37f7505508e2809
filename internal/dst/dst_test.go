package dst

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/transport"
)

// The scenario digests. An outcome is a function of the export/import
// history alone, so each workload has one digest — under every seed and
// fault model, on the virtual clock and on the wall clock. A change that
// moves one has changed what the protocol answers.
const (
	goldenExchange    = 0x7f622aaa2dd51f0a // exchangeWorkload: 12 matches
	goldenKillRestart = 0xc14ae0bb0dc7dc65 // killRestartWorkload: 28 (24 + 2 ranks x 2 replayed steps)
	// The collective scenarios' digests: results are pure functions of the
	// inputs, so the calm run, every faulty seed and every replay agree.
	goldenCollectiveChaos = 0x3e730378b08c2b04 // default config: 96 outcomes
	goldenRankFailure     = 0x7c9875c090d28f86 // default config: 37 outcomes, agreed [2]
)

// seedCount returns how many seeds a sweep should cover: def locally, or
// the DST_SEEDS environment variable when set (the CI seed sweep raises it).
func seedCount(t *testing.T, def int) int {
	if s := os.Getenv("DST_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad DST_SEEDS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		def = (def + 3) / 4
		if def < 1 {
			def = 1
		}
	}
	return def
}

func TestFigure4Sweep(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	n := seedCount(t, 8)
	for seed := int64(1); seed <= int64(n); seed++ {
		res, err := RunFigure4(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Dropped != 0 {
			t.Fatalf("seed %d: delay-only run dropped %d messages", seed, res.Dropped)
		}
		if res.Delayed == 0 {
			t.Fatalf("seed %d: fault injection inert (no message delayed)", seed)
		}
	}
}

func TestChaosSweep(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	n := seedCount(t, 8)
	for seed := int64(1); seed <= int64(n); seed++ {
		res, err := RunChaos(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Dropped == 0 {
			t.Fatalf("seed %d: fault injection inert (no message dropped)", seed)
		}
	}
}

func TestKillRestartSweep(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	n := seedCount(t, 4)
	for seed := int64(1); seed <= int64(n); seed++ {
		if _, err := RunKillRestart(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFaultIndependence pins the paper's central promise from the fault
// side: the Figure-4 and chaos scenarios run the identical workload under
// different fault models (delays only vs drops+delays), so their outcome
// digests must agree seed by seed — injected faults may cost latency, never
// answers. Seeds 1..4 are pinned as regressions: they cover the deepest
// interleavings the development sweeps explored.
func TestFaultIndependence(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for seed := int64(1); seed <= 4; seed++ {
		fig, err := RunFigure4(seed)
		if err != nil {
			t.Fatalf("figure4 seed %d: %v", seed, err)
		}
		cha, err := RunChaos(seed)
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		if fig.Digest != cha.Digest {
			t.Fatalf("seed %d: outcome digest differs across fault models: %#x (delay-only) vs %#x (drops)",
				seed, fig.Digest, cha.Digest)
		}
	}
}

// TestReplayDigest holds the framework to the paper's determinism property:
// for a fixed seed, re-running a scenario must reproduce the exact same
// protocol outcomes — every match timestamp and every delivered byte — no
// matter how the runtime schedules goroutines. Traffic counters may differ
// between runs; the outcome digest may not.
func TestReplayDigest(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	scenarios := []struct {
		name    string
		run     func(int64) (*Result, error)
		digest  uint64
		matched int
	}{
		{"figure4", RunFigure4, goldenExchange, 12},
		{"chaos", RunChaos, goldenExchange, 12},
		{"killrestart", RunKillRestart, goldenKillRestart, 28},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			const seed = 42
			a, err := sc.run(seed)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := sc.run(seed)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Digest != b.Digest {
				t.Fatalf("seed %d digest not reproducible: %#x vs %#x", seed, a.Digest, b.Digest)
			}
			if a.Matched != b.Matched {
				t.Fatalf("seed %d matched count not reproducible: %d vs %d", seed, a.Matched, b.Matched)
			}
			if a.Digest != sc.digest || a.Matched != sc.matched {
				t.Fatalf("seed %d: digest %#x over %d matches, golden %#x over %d", seed, a.Digest, a.Matched, sc.digest, sc.matched)
			}
		})
	}
}

// TestCrossEnvironmentDigest runs the sweeps' own workloads through the
// wall-clock environments — the exchange over FaultNetwork+mem, kill-restart
// over a real TCP router — under the same script and checker, and requires
// the digests the virtual clock produces: what carries the messages, and
// what time it keeps, may not change an answer.
func TestCrossEnvironmentDigest(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const limit = 60 * time.Second
	t.Run("exchange/fault", func(t *testing.T) {
		env := FaultEnv(transport.FaultConfig{
			Seed: 42, Drop: 0.2, DelayProb: 0.2, MaxDelay: 2 * time.Millisecond, ResetEvery: 97,
		}, limit)
		defer env.Close()
		res, err := exchangeWorkload().Exchange(env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped == 0 {
			t.Errorf("fault layer injected nothing: %+v", res.Traffic)
		}
		if res.Digest != goldenExchange || res.Matched != 12 {
			t.Fatalf("digest %#x over %d matches, golden %#x over 12", res.Digest, res.Matched, uint64(goldenExchange))
		}
	})
	t.Run("killrestart/tcp", func(t *testing.T) {
		res, err := killRestartWorkload().KillRestart(func() (*Env, error) { return TCPEnv(limit) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != goldenKillRestart || res.Matched != 28 {
			t.Fatalf("digest %#x over %d matches, golden %#x over 28", res.Digest, res.Matched, uint64(goldenKillRestart))
		}
	})
}

// TestWallClockWatchdog loses every message: the run cannot finish, and the
// wall-clock driver must say so — naming the seed and what the network
// injected — instead of hanging, and leave no goroutine behind once the
// substrate is closed under the blocked ranks.
func TestWallClockWatchdog(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	env := FaultEnv(transport.FaultConfig{Seed: 7, Drop: 1}, 300*time.Millisecond)
	defer env.Close()
	_, err := exchangeWorkload().Exchange(env)
	if err == nil {
		t.Fatal("a run over a network that drops everything completed")
	}
	for _, want := range []string{"hung", "seed 7", "Dropped:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("watchdog error %q does not name %q", err, want)
		}
	}
}
