package harness

import "testing"

// TestFramingComparison is the PR's framing acceptance gate: the coupled
// run must send at least 3x fewer transport frames with coalescing enabled,
// and the coalescing must be invisible to the coupling — identical MATCH
// count and byte-identical imported data (equal checksums).
func TestFramingComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("framing comparison runs two full couplings")
	}
	cfg := DefaultFramingConfig()
	cfg.GridN = 16
	cfg.Exports = 200
	fc, err := RunFramingComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("framing: %s", fc)
	t.Logf("coalesced frames: %+v", fc.Coalesced.Frames)

	if red := fc.FrameReduction(); red < 3 {
		t.Errorf("frame reduction %.2fx (%d messages in %d frames), want >= 3x",
			red, fc.Coalesced.Frames.Messages, fc.Coalesced.Frames.Frames)
	}

	requests := cfg.Exports / cfg.MatchEvery
	if fc.Baseline.Matched != requests {
		t.Errorf("baseline matched %d of %d requests", fc.Baseline.Matched, requests)
	}
	if fc.Baseline.Matched != fc.Coalesced.Matched {
		t.Errorf("matched diverged: baseline %d, coalesced %d", fc.Baseline.Matched, fc.Coalesced.Matched)
	}
	if fc.Baseline.ImportChecksum != fc.Coalesced.ImportChecksum {
		t.Errorf("import checksum diverged: baseline %g, coalesced %g — coalescing changed the data",
			fc.Baseline.ImportChecksum, fc.Coalesced.ImportChecksum)
	}
	if fc.Baseline.ImportChecksum == 0 {
		t.Error("import checksum is zero — the runs imported nothing")
	}
	if !fc.Identical() {
		t.Error("Identical() = false")
	}
}
