package harness

import (
	"fmt"
	"time"
)

// TubResult compares one Figure-4 configuration with buddy-help on and off:
// the paper's T_ub (Equation (2)) ablation. All quantities are for the
// slowest exporter process p_s.
type TubResult struct {
	Cfg Figure4Config
	// With/Without are the results of the two runs.
	With, Without *Figure4Result
}

// CopiesSaved returns how many memcpys buddy-help eliminated on p_s.
func (t *TubResult) CopiesSaved() int {
	return t.Without.SlowStats.Copies - t.With.SlowStats.Copies
}

// UnnecessarySaved returns the reduction in unnecessary buffering time
// (T_ub) on p_s.
func (t *TubResult) UnnecessarySaved() time.Duration {
	return t.Without.SlowStats.UnnecessaryTime - t.With.SlowStats.UnnecessaryTime
}

// RunTub runs the buddy-help on/off ablation for one configuration.
func RunTub(cfg Figure4Config) (*TubResult, error) {
	with := cfg
	with.BuddyHelp = true
	with.Name = cfg.Name + "/buddy-on"
	without := cfg
	without.BuddyHelp = false
	without.Name = cfg.Name + "/buddy-off"

	rw, err := RunFigure4(with)
	if err != nil {
		return nil, fmt.Errorf("harness: buddy-on run: %w", err)
	}
	rwo, err := RunFigure4(without)
	if err != nil {
		return nil, fmt.Errorf("harness: buddy-off run: %w", err)
	}
	return &TubResult{Cfg: cfg, With: rw, Without: rwo}, nil
}

// OnsetPoint is one entry of the optimal-state-onset sweep.
type OnsetPoint struct {
	ImporterProcs int
	Settle        int // iteration estimate of reaching the optimal state
	MeanExport    time.Duration
	TailExport    time.Duration // mean over the last MatchEvery iterations
}

// RunOptimalStateOnset sweeps the importer process count and reports when
// each configuration's export-time series settles — the generalization of
// the paper's "~400 iterations for U=16 vs ~25 for U=32" observation.
func RunOptimalStateOnset(base Figure4Config, procs []int) ([]OnsetPoint, error) {
	out := make([]OnsetPoint, 0, len(procs))
	for _, n := range procs {
		cfg := base
		cfg.ImporterProcs = n
		cfg.Name = fmt.Sprintf("U=%d", n)
		res, err := RunFigure4(cfg)
		if err != nil {
			return nil, err
		}
		s := res.ExportTimes
		out = append(out, OnsetPoint{
			ImporterProcs: n,
			Settle:        res.Settle,
			MeanExport:    Window(s, 0, len(s)),
			TailExport:    Window(s, len(s)-cfg.MatchEvery, len(s)),
		})
	}
	return out, nil
}
