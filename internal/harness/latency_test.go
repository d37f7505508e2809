package harness

import (
	"testing"
	"time"
)

// TestLatencySweepRuns: the coupled protocol stays correct under injected
// network latency (FaultConfig{Latency, Jitter}), and the sweep reports sane
// numbers. What latency guarantees holds at every point: every request is
// matched and sent exactly once, and p_s copies no more than it exports. That
// buddy-help does not cost copies is held at the zero-latency point only —
// at 2 ms its answer arrives too late to act on, and the on and off runs
// differ by request-timing noise alone.
func TestLatencySweepRuns(t *testing.T) {
	base := tinyFigure4(2, true)
	base.Exports = 81
	points, err := RunLatencySweep(base, []time.Duration{0, 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %v", points)
	}
	for _, pt := range points {
		for _, run := range []*Figure4Result{pt.With, pt.Without} {
			if want := base.Exports / base.MatchEvery; run.Matched != want || run.SlowStats.Sends != want {
				t.Errorf("%s: matched %d and sent %d of %d requests", run.Cfg.Name, run.Matched, run.SlowStats.Sends, want)
			}
			if c := run.SlowStats.Copies; c <= 0 || c > base.Exports {
				t.Errorf("%s: %d copies for %d exports", run.Cfg.Name, c, base.Exports)
			}
		}
	}
	// The two runs see different live request-arrival timing, so allow small
	// run-to-run noise; buddy-help must never be much worse.
	zero := points[0]
	if slack := base.Exports / 10; zero.With.SlowStats.Copies > zero.Without.SlowStats.Copies+slack {
		t.Errorf("no latency: buddy-help increased copies %d > %d+%d",
			zero.With.SlowStats.Copies, zero.Without.SlowStats.Copies, slack)
	}
}

// TestFigure4WithLatencyCorrect: a full run over the latency network still
// matches and transfers everything.
func TestFigure4WithLatencyCorrect(t *testing.T) {
	cfg := tinyFigure4(2, true)
	cfg.Exports = 61
	cfg.NetLatency = time.Millisecond
	res, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != cfg.Exports/cfg.MatchEvery {
		t.Errorf("matched %d of %d", res.Matched, cfg.Exports/cfg.MatchEvery)
	}
	if res.SlowStats.Sends != res.Matched {
		t.Errorf("sends %d, matched %d", res.SlowStats.Sends, res.Matched)
	}
}
