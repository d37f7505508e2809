package diag

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
)

// The flight recorder is the flt.* spans on a program's obsv span ring. These
// tests pin the recorder guarantees the diagnosis layer relies on: a bounded
// ring that keeps the newest events, safe concurrent recording by every rank,
// and a disabled (nil) recorder that costs nothing and writes no dump.

func TestRecorderRingWraps(t *testing.T) {
	tr := obsv.NewTracer(4, nil)
	r := tr.Ring("F", 0)
	for i := 0; i < 10; i++ {
		r.Record(obsv.Span{Name: "flt.mark", TS: r.Now(), Arg: int64(i)})
	}
	events := r.Spans()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for _, e := range events {
		if e.Arg < 6 {
			t.Fatalf("old event %d survived the wrap", e.Arg)
		}
	}
	// The flight dump carries exactly the retained events.
	path, err := tr.DumpFile(t.TempDir(), "wrap")
	if err != nil {
		t.Fatal(err)
	}
	d, err := obsv.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "wrap" || len(d.Spans) != 4 {
		t.Fatalf("dump reason %q with %d spans, want \"wrap\" with 4", d.Reason, len(d.Spans))
	}
	for _, s := range d.Spans {
		if s.Lane != "F:0" || s.Name != "flt.mark" || s.Arg < 6 {
			t.Fatalf("dump holds %+v, want the retained flt.mark events on F:0", s)
		}
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := obsv.NewTracer(64, nil).Ring("F", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(obsv.Span{Name: "flt.mark", TS: r.Now(), Arg: int64(g*100 + i)})
			}
		}(g)
	}
	wg.Wait()
	events := r.Spans()
	if len(events) != 64 {
		t.Fatalf("ring holds %d events, want a full ring of 64", len(events))
	}
	seen := make(map[int64]bool, len(events))
	for _, e := range events {
		if e.Name != "flt.mark" || e.Arg < 0 || e.Arg >= 800 || seen[e.Arg] {
			t.Fatalf("torn or duplicated event %+v", e)
		}
		seen[e.Arg] = true
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var tr *obsv.Tracer
	r := tr.Ring("F", 0)
	r.Record(obsv.Span{Name: "flt.mark"})
	if r.Spans() != nil || r.Now() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if path, err := tr.DumpFile(t.TempDir(), "x"); path != "" || err != nil {
		t.Fatalf("nil recorder dumped %q, %v; want no file", path, err)
	}
}
