package harness

import "fmt"

// FramingComparison is the allocation-and-framing experiment: one Figure-4
// configuration run twice — once on the bare network (the baseline for the
// identity check) and once under a CoalescingNetwork, whose own counters give
// the frame reduction — so the reduction and the invariance of the match
// results can be read off directly.
type FramingComparison struct {
	Baseline, Coalesced *Figure4Result
}

// FrameReduction returns the coalesced run's messages per frame: uncoalesced,
// every message is a frame of its own (>1 means the coalescing layer shrank
// the wire traffic).
func (fc *FramingComparison) FrameReduction() float64 {
	if fc.Coalesced.Frames.Frames == 0 {
		return 0
	}
	return float64(fc.Coalesced.Frames.Messages) / float64(fc.Coalesced.Frames.Frames)
}

// Identical reports whether the two runs matched identically: same MATCH
// count and the same imported data, byte for byte (the checksum is a sum
// over every imported value, and the matched versions are deterministic).
func (fc *FramingComparison) Identical() bool {
	return fc.Baseline.Matched == fc.Coalesced.Matched &&
		fc.Baseline.ImportChecksum == fc.Coalesced.ImportChecksum
}

// String renders the comparison's headline numbers.
func (fc *FramingComparison) String() string {
	return fmt.Sprintf("frames %d -> %d (%.1fx), matched %d/%d, checksum equal %v",
		fc.Coalesced.Frames.Messages, fc.Coalesced.Frames.Frames, fc.FrameReduction(),
		fc.Baseline.Matched, fc.Coalesced.Matched, fc.Identical())
}

// DefaultFramingConfig returns the configuration the framing experiment
// uses: the Figure-4 coupling made communication-bound (no simulated
// computation, a request every other export), because message combining
// pays off exactly when same-pair control messages cluster in time — the
// regime Träff et al. target. The Figure-4 timing configurations spread
// their control traffic across multi-millisecond work phases, where
// per-frame overhead is irrelevant by construction.
func DefaultFramingConfig() Figure4Config {
	return Figure4Config{
		Name:          "framing",
		GridN:         32,
		ExporterProcs: 4,
		ImporterProcs: 8,
		Exports:       400,
		MatchEvery:    2,
		Tolerance:     1.5,
		BuddyHelp:     true,
		Runs:          1,
	}
}

// RunFramingComparison runs cfg twice — coalescing off then on — and returns
// both outcomes.
func RunFramingComparison(cfg Figure4Config) (*FramingComparison, error) {
	base := cfg
	base.Name = cfg.Name + "/uncoalesced"
	base.Coalesce = false
	baseline, err := RunFigure4(base)
	if err != nil {
		return nil, fmt.Errorf("harness: baseline framing run: %w", err)
	}
	co := cfg
	co.Name = cfg.Name + "/coalesced"
	co.Coalesce = true
	coalesced, err := RunFigure4(co)
	if err != nil {
		return nil, fmt.Errorf("harness: coalesced framing run: %w", err)
	}
	return &FramingComparison{Baseline: baseline, Coalesced: coalesced}, nil
}
