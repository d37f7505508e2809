package buffer

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/match"
	"repro/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newFigureRing returns a span lane large enough for any scenario test.
func newFigureRing() *obsv.Ring { return obsv.NewTracer(1<<10, nil).Ring("F", 0) }

// wantFigureLines checks that the figure lines recorded on ring are exactly
// want, in order.
func wantFigureLines(t *testing.T, ring *obsv.Ring, want ...string) {
	t.Helper()
	lines := FigureLines(ring)
	for i, w := range want {
		if i >= len(lines) || strings.TrimSpace(lines[i][3:]) != w {
			t.Fatalf("figure line %d: want %q\nfull trace:\n%s", i+1, w, strings.Join(lines, "\n"))
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d figure lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
}

// TestFigureLinesGolden pins the paper-style rendering of every figure
// event and formatter branch — copy, skip, single and ranged removes, MATCH /
// PENDING / NO MATCH replies, buddy-help, send — to testdata/events.golden
// (regenerate with go test -run Golden -update).
func TestFigureLinesGolden(t *testing.T) {
	ring := newFigureRing()
	m := newManager(t, match.REGL, 2.5, ring)
	for _, e := range []figEvent{
		{name: figCopy, ts: 1.6},
		{name: figSkip, ts: 2.6},
		{name: figRemove, ts: 1.6, ts2: 1.6},
		{name: figRemove, ts: 1.6, ts2: 14.6},
		{name: figRequest, req: 20},
		replyEvent(20, match.Decision{Result: match.Match, MatchTS: 19.6, Latest: 21.6}),
		replyEvent(20, match.Decision{Result: match.Pending, Latest: 14.6}),
		replyEvent(20, match.Decision{Result: match.NoMatch, Latest: 14.6}),
		{name: figBuddy, req: 20, result: match.Match, ts: 19.6},
		{name: figSend, ts: 19.6},
	} {
		m.fig(e)
	}
	got := strings.Join(FigureLines(ring), "\n") + "\n"
	path := filepath.Join("testdata", "events.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("figure rendering drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestFigureEventStrings(t *testing.T) {
	for _, c := range []struct {
		e    figEvent
		want string
	}{
		{figEvent{name: figCopy, ts: 1.6}, "export D@1.6, call memcpy."},
		{figEvent{name: figSkip, ts: 15.6}, "export D@15.6, skip memcpy."},
		{figEvent{name: figRemove, ts: 1.6, ts2: 14.6}, "remove D@1.6, ..., D@14.6."},
		{figEvent{name: figRemove, ts: 31.6, ts2: 31.6}, "remove D@31.6."},
		{figEvent{name: figRequest, req: 20}, "receive request for D@20."},
		{replyEvent(20, match.Decision{Result: match.Pending, Latest: 14.6}), "reply {D@20, PENDING, D@14.6}."},
		{replyEvent(20, match.Decision{Result: match.Match, MatchTS: 19.6, Latest: 21.6}), "reply {D@20, MATCH, D@19.6}."},
		{figEvent{name: figBuddy, req: 20, result: match.Match, ts: 19.6}, "receive buddy-help {D@20, MATCH, D@19.6}."},
		{figEvent{name: figSend, ts: 19.6}, "send D@19.6 out."},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
	if (figEvent{name: "fig.unknown"}).String() == "" {
		t.Error("unknown event renders empty")
	}
}

// TestFigureLinesAccumulate: figure lines are numbered from 1 in record
// order, countable by span name, and other spans on the lane are not lines.
func TestFigureLinesAccumulate(t *testing.T) {
	ring := newFigureRing()
	m := newManager(t, match.REGL, 2.5, ring)
	m.fig(figEvent{name: figCopy, ts: 1})
	ring.Record(obsv.Span{Name: "export", TS: ring.Now(), Dur: 5})
	m.fig(figEvent{name: figSkip, ts: 2})
	m.fig(figEvent{name: figSkip, ts: 3})
	lines := FigureLines(ring)
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "1 ") || !strings.HasPrefix(lines[2], "3 ") {
		t.Fatalf("lines %q", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "export D@2, skip memcpy.") {
		t.Errorf("lines %q lack the first skip", lines)
	}
	count := map[string]int{}
	for _, sp := range ring.Spans() {
		count[sp.Name]++
	}
	if count[figSkip] != 2 || count[figCopy] != 1 || count[figSend] != 0 {
		t.Errorf("span counts %v", count)
	}
}

// TestFigureSpansConcurrent: managers on one process share its ring, and
// figure events recorded from concurrent goroutines are all kept.
func TestFigureSpansConcurrent(t *testing.T) {
	ring := newFigureRing()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		m := newManager(t, match.REGL, 2.5, ring)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := m.Offer(float64(j), payload(float64(j))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(FigureLines(ring)); n != 800 {
		t.Errorf("%d figure lines, want 800", n)
	}
}

// TestFigureSpansOnlyWhenTraced: without a ring the manager records nothing
// and still decides; with one, every event is an instant "fig.*" span.
func TestFigureSpansOnlyWhenTraced(t *testing.T) {
	untraced := newManager(t, match.REGL, 2.5, nil)
	offer(t, untraced, 1.6)
	ring := newFigureRing()
	m := newManager(t, match.REGL, 2.5, ring)
	offer(t, m, 1.6)
	sendRequest(t, m, 20)
	for _, sp := range ring.Spans() {
		if !strings.HasPrefix(sp.Name, "fig.") || sp.Dur != 0 || sp.Detail == "" {
			t.Errorf("span %+v is not a figure instant", sp)
		}
	}
	if n := len(ring.Spans()); n != 4 { // copy, request, reply, remove
		t.Errorf("%d spans, want 4", n)
	}
}
