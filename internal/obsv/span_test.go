package obsv

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reported enabled")
	}
	if tr.NewSpanID() != 0 {
		t.Fatal("nil tracer minted a nonzero ID")
	}
	if tr.Now() != 0 {
		t.Fatal("nil tracer returned a nonzero time")
	}
	r := tr.Ring("F", 0)
	if r != nil {
		t.Fatal("nil tracer returned a ring")
	}
	r.Record(Span{Name: "x"}) // must not panic
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatalf("disabled trace output malformed: %s", b.String())
	}
	if path, err := tr.DumpFile(t.TempDir(), "x"); path != "" || err != nil {
		t.Fatalf("nil tracer DumpFile = %q, %v; want no file", path, err)
	}
}

func TestRingWraps(t *testing.T) {
	tr := NewTracer(4, nil)
	r := tr.Ring("F", 0)
	for i := 0; i < 10; i++ {
		r.Record(Span{Name: "op", TS: int64(i)})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// The oldest retained span is #6 (10 writes into 4 slots).
	if spans[0].TS != 6 || spans[3].TS != 9 {
		t.Fatalf("ring retained wrong spans: %+v", spans)
	}
}

// TestRingSpansRecordOrderAcrossWrap: spans with equal timestamps — common
// on the virtual clock — come out in record order after the ring wraps,
// oldest retained record first, not rotated at the wrap point.
func TestRingSpansRecordOrderAcrossWrap(t *testing.T) {
	r := NewTracer(8, nil).Ring("F", 0)
	for i := 0; i < 12; i++ {
		r.Record(Span{Name: "op", TS: 42, Arg: int64(i)})
	}
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	for i, sp := range spans {
		if sp.Arg != int64(4+i) {
			t.Fatalf("span %d is record %d, want %d (records 4..11 in order): %+v", i, sp.Arg, 4+i, spans)
		}
	}
}

// TestRingSpansSnapshot: Spans returns a copy that later records do not grow.
func TestRingSpansSnapshot(t *testing.T) {
	r := NewTracer(8, nil).Ring("F", 0)
	r.Record(Span{Name: "op", TS: 1})
	spans := r.Spans()
	r.Record(Span{Name: "op", TS: 2})
	if len(spans) != 1 || spans[0].TS != 1 {
		t.Errorf("snapshot changed after a later record: %+v", spans)
	}
	if n := len(r.Spans()); n != 2 {
		t.Errorf("ring holds %d spans, want 2", n)
	}
}

func TestRingLanesAndIDs(t *testing.T) {
	tr := NewTracer(16, nil)
	a := tr.Ring("F", 0)
	b := tr.Ring("F", 0)
	if a != b {
		t.Fatal("same lane returned different rings")
	}
	rep := tr.Ring("F", -1)
	if rep.proc != "F:rep" || rep.tid != 1 {
		t.Fatalf("rep lane = %q tid=%d", rep.proc, rep.tid)
	}
	u := tr.Ring("U", 3)
	if u.pid == a.pid {
		t.Fatal("different programs shared a pid")
	}
	if u.tid != 5 {
		t.Fatalf("rank 3 tid = %d, want 5", u.tid)
	}
	id1, id2 := tr.NewSpanID(), tr.NewSpanID()
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("bad span IDs %d %d", id1, id2)
	}
}

// TestChromeTraceShape checks the exported JSON parses and contains the
// metadata, complete, and flow events Perfetto needs for cross-process
// arrows.
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(64, nil)
	exp := tr.Ring("F", 0)
	imp := tr.Ring("U", 1)
	flow := tr.NewSpanID()
	exp.Record(Span{Name: "export", TS: 1000, Dur: 500, Flow: flow, Detail: "copy"})
	imp.Record(Span{Name: "import", TS: 3000, Dur: 200, Flow: flow, Arg: 7})
	imp.Record(Span{Name: "tick", TS: 100}) // no flow

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	count := map[string]int{}
	var sPid, fPid float64 = -1, -1
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		count[ph]++
		switch ph {
		case "s":
			sPid = ev["pid"].(float64)
		case "f":
			fPid = ev["pid"].(float64)
		}
	}
	if count["M"] != 4 { // 2 process_name + 2 thread_name
		t.Errorf("metadata events = %d, want 4", count["M"])
	}
	if count["X"] != 3 {
		t.Errorf("complete events = %d, want 3", count["X"])
	}
	if count["s"] != 1 || count["f"] != 1 {
		t.Errorf("flow events s=%d f=%d, want 1 each", count["s"], count["f"])
	}
	if sPid == fPid {
		t.Error("flow start and finish landed in the same process; want a cross-process edge")
	}
}

// TestRingConcurrentRecordAndDump exercises writers racing the trace dump;
// run with -race this proves the ring is data-race free.
func TestRingConcurrentRecordAndDump(t *testing.T) {
	tr := NewTracer(128, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			r := tr.Ring("F", lane)
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
					r.Record(Span{Name: "op", TS: int64(j), Flow: uint64(j % 7)})
				}
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeDump([]byte(b.String())); err != nil {
			t.Fatalf("a dump taken under live writers does not decode: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRingRecordCost pins what a traced record costs: one allocation, the
// copy of the span the slot points to (the untraced path is free; see
// TestUntracedInstrumentsZeroAlloc).
func TestRingRecordCost(t *testing.T) {
	r := NewTracer(64, nil).Ring("F", 0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(Span{Name: "flt.export-stall", TS: r.Now(), Dur: 1, Detail: "F.f>U.f"})
	})
	if allocs > 1 {
		t.Fatalf("traced Ring.Record allocates %.1f times, want at most 1", allocs)
	}
}
