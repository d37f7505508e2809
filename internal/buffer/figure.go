package buffer

import (
	"fmt"
	"strings"

	"repro/internal/match"
	"repro/internal/obsv"
)

// The manager records the events of the paper's line-by-line scenario
// figures (Figures 5, 7 and 8) as instant spans under these names, on the
// ring Config.Ring names; the "fig." prefix keeps them apart from the
// framework's timing spans on the same lane.
const (
	figCopy    = "fig.copy"
	figSkip    = "fig.skip"
	figRemove  = "fig.remove"
	figRequest = "fig.request"
	figReply   = "fig.reply"
	figBuddy   = "fig.buddy"
	figSend    = "fig.send"
)

// figEvent is one figure line. ts is the data timestamp the event concerns
// (for a reply: the match, or else the latest export), req the request
// timestamp; a remove frees ts..ts2.
type figEvent struct {
	name         string
	ts, ts2, req float64
	result       match.Result
}

// String renders the event as the paper's figures print it.
func (e figEvent) String() string {
	switch e.name {
	case figCopy:
		return fmt.Sprintf("export D@%g, call memcpy.", e.ts)
	case figSkip:
		return fmt.Sprintf("export D@%g, skip memcpy.", e.ts)
	case figRemove:
		if e.ts == e.ts2 {
			return fmt.Sprintf("remove D@%g.", e.ts)
		}
		return fmt.Sprintf("remove D@%g, ..., D@%g.", e.ts, e.ts2)
	case figRequest:
		return fmt.Sprintf("receive request for D@%g.", e.req)
	case figReply:
		return fmt.Sprintf("reply {D@%g, %v, D@%g}.", e.req, e.result, e.ts)
	case figBuddy:
		return fmt.Sprintf("receive buddy-help {D@%g, %v, D@%g}.", e.req, e.result, e.ts)
	}
	return fmt.Sprintf("send D@%g out.", e.ts)
}

// fig records one figure event; the line is formatted only when a ring is
// set, so the untraced path pays one nil check.
func (m *Manager) fig(e figEvent) {
	if r := m.cfg.Ring; r != nil {
		r.Record(obsv.Span{Name: e.name, TS: r.Now(), Detail: e.String()})
	}
}

func replyEvent(x float64, d match.Decision) figEvent {
	ts := d.Latest
	if d.Result == match.Match {
		ts = d.MatchTS
	}
	return figEvent{name: figReply, req: x, result: d.Result, ts: ts}
}

// FigureLines renders the figure events recorded on r as numbered lines in
// record order — the text of the paper's Figures 5, 7 and 8.
func FigureLines(r *obsv.Ring) []string {
	var out []string
	for _, sp := range r.Spans() {
		if strings.HasPrefix(sp.Name, "fig.") {
			out = append(out, fmt.Sprintf("%-3d %s", len(out)+1, sp.Detail))
		}
	}
	return out
}
