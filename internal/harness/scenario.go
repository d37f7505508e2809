package harness

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/match"
	"repro/internal/obsv"
)

// Scenario replays one of the paper's line-by-line figures against the same
// per-process export pipeline (buffer.Manager) the framework runs in
// production. The manager records the figure's events on Ring, the one lane
// of Tracer (so the replay exports as a Chrome trace like a live run), and
// Stats holds its buffer statistics.
type Scenario struct {
	Figure string
	Tracer *obsv.Tracer
	Ring   *obsv.Ring
	Stats  buffer.Stats
}

// Lines renders the recorded figure events as numbered paper-style lines.
func (s *Scenario) Lines() []string { return buffer.FigureLines(s.Ring) }

// newScenario returns a figure's scenario and the REGL manager recording
// onto its ring.
func newScenario(figure string, tol float64) (*Scenario, *buffer.Manager, error) {
	t := obsv.NewTracer(1<<10, nil)
	sc := &Scenario{Figure: figure, Tracer: t, Ring: t.Ring("F", 0)}
	m, err := buffer.NewManager(buffer.Config{Policy: match.REGL, Tol: tol, Ring: sc.Ring})
	return sc, m, err
}

// exportRange offers the exports lo, lo+1, ... up to hi.
func exportRange(m *buffer.Manager, lo, hi float64) error {
	for ts := lo; ts < hi+0.1; ts++ {
		if _, err := m.Offer(ts, []float64{ts, ts, ts, ts}); err != nil {
			return err
		}
	}
	return nil
}

// ScenarioFigure5 reproduces Figure 5: REGL, tolerance 2.5, exports at
// k+0.6, requests at 20 and 40, buddy-help messages carrying the fastest
// process's answers (MATCH D@19.6, MATCH D@39.6).
func ScenarioFigure5() (*Scenario, error) {
	sc, m, err := newScenario("5", 2.5)
	if err != nil {
		return nil, err
	}
	// Lines 1-4: exports 1.6 .. 14.6.
	if err := exportRange(m, 1.6, 14.6); err != nil {
		return nil, err
	}
	// Lines 5-7: request D@20 (PENDING, remove everything below 17.5).
	r1, err := m.OnRequest(20)
	if err != nil {
		return nil, err
	}
	if r1.Decision.Result != match.Pending {
		return nil, fmt.Errorf("harness: figure 5 request 1 resolved %v", r1.Decision)
	}
	// Line 8: buddy-help {D@20, MATCH, D@19.6}.
	if _, err := m.OnFinal(r1.ReqIndex, match.Match, 19.6); err != nil {
		return nil, err
	}
	// Lines 10-20: exports 15.6 .. 31.6 (skips through 18.6, memcpy+send at
	// 19.6, memcpys beyond the region).
	if err := exportRange(m, 15.6, 31.6); err != nil {
		return nil, err
	}
	// Lines 21-23: request D@40.
	r2, err := m.OnRequest(40)
	if err != nil {
		return nil, err
	}
	// Line 24: buddy-help {D@40, MATCH, D@39.6}.
	if _, err := m.OnFinal(r2.ReqIndex, match.Match, 39.6); err != nil {
		return nil, err
	}
	// Lines 26-33: exports 32.6 .. 40.6.
	if err := exportRange(m, 32.6, 40.6); err != nil {
		return nil, err
	}
	sc.Stats = m.Stats()
	return sc, nil
}

// ScenarioFigure7 reproduces Figure 7: REGL, tolerance 5.0, request at 10.0,
// with buddy-help.
func ScenarioFigure7() (*Scenario, error) {
	sc, m, err := newScenario("7", 5)
	if err != nil {
		return nil, err
	}
	if err := exportRange(m, 1.6, 3.6); err != nil {
		return nil, err
	}
	r, err := m.OnRequest(10)
	if err != nil {
		return nil, err
	}
	if _, err := m.OnFinal(r.ReqIndex, match.Match, 9.6); err != nil {
		return nil, err
	}
	if err := exportRange(m, 4.6, 10.6); err != nil {
		return nil, err
	}
	sc.Stats = m.Stats()
	return sc, nil
}

// ScenarioFigure8 reproduces Figure 8: the same configuration as Figure 7
// but WITHOUT buddy-help — the process must keep buffering each new best
// candidate until its own exports pass the acceptable region.
func ScenarioFigure8() (*Scenario, error) {
	sc, m, err := newScenario("8", 5)
	if err != nil {
		return nil, err
	}
	if err := exportRange(m, 1.6, 3.6); err != nil {
		return nil, err
	}
	if _, err := m.OnRequest(10); err != nil {
		return nil, err
	}
	if err := exportRange(m, 4.6, 11.6); err != nil {
		return nil, err
	}
	sc.Stats = m.Stats()
	return sc, nil
}

// RunScenario dispatches by figure number ("5", "7", "8").
func RunScenario(figure string) (*Scenario, error) {
	switch figure {
	case "5":
		return ScenarioFigure5()
	case "7":
		return ScenarioFigure7()
	case "8":
		return ScenarioFigure8()
	default:
		return nil, fmt.Errorf("harness: no scenario for figure %q (have 5, 7, 8)", figure)
	}
}
