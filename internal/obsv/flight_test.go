package obsv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestDumpRoundTrip: a flight dump is the tracer's Chrome trace in a
// flight-*.json file, and ReadDump gives back every span with its lane, the
// reason, and the tracer's epoch on its (here virtual) clock.
func TestDumpRoundTrip(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(100, 0))
	tr := NewTracer(8, clk)
	f, rep := tr.Ring("F", 1), tr.Ring("F", -1)
	clk.Advance(1500 * time.Nanosecond)
	f.Record(Span{Name: "flt.revoke", TS: f.Now(), Arg: 7, Detail: "epoch=0 initiator"})
	clk.Advance(time.Microsecond)
	f.Record(Span{Name: "flt.export-stall", TS: f.Now() - 2000, Dur: 2000, Detail: "F.f>U.f"})
	rep.Record(Span{Name: "flt.peer-down", TS: rep.Now(), Detail: "U"})

	dir := filepath.Join(t.TempDir(), "new") // created on demand
	path, err := tr.DumpFile(dir, "test dump")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := filepath.Match(filepath.Join(dir, "flight-*.json"), path); !ok {
		t.Fatalf("dump path %s, want %s/flight-*.json", path, dir)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "test dump" || d.Epoch != time.Unix(100, 0).UnixNano() {
		t.Fatalf("header: reason %q epoch %d", d.Reason, d.Epoch)
	}
	want := []LaneSpan{
		{"F:1", Span{Name: "flt.revoke", TS: 1500, Dur: 1000, Arg: 7, Detail: "epoch=0 initiator"}},
		{"F:1", Span{Name: "flt.export-stall", TS: 500, Dur: 2000, Detail: "F.f>U.f"}},
		{"F:rep", Span{Name: "flt.peer-down", TS: 2500, Dur: 1000, Detail: "U"}},
	}
	if len(d.Spans) != len(want) {
		t.Fatalf("read %d spans, want %d: %+v", len(d.Spans), len(want), d.Spans)
	}
	for i := range want {
		if d.Spans[i] != want[i] { // instants come back 1 µs wide, as Perfetto draws them
			t.Errorf("span %d = %+v, want %+v", i, d.Spans[i], want[i])
		}
	}
}

// TestReadDumpRejectsGarbage: the reader takes only a JSON object with a
// traceEvents array, and no truncation of a real dump.
func TestReadDumpRejectsGarbage(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.Ring("F", 0).Record(Span{Name: "flt.mark", Detail: "hello"})
	var full strings.Builder
	if err := tr.writeTrace(&full, "trunc"); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDump([]byte(full.String())); err != nil {
		t.Fatalf("the full dump does not decode: %v", err)
	}
	for _, bad := range []string{"not a dump at all", `{"spans":[]}`, `[1,2]`, `{"traceEvents":null}`} {
		if _, err := decodeDump([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	b := strings.TrimSpace(full.String())
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := decodeDump([]byte(b[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	path := filepath.Join(t.TempDir(), "x.json")
	if err := os.WriteFile(path, []byte(b[:len(b)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDump(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadDump of a truncated file: err = %v, want one naming the file", err)
	}
}

// TestMergeDumpsOrdersAcrossDumps: spans merge on epoch + TS, not TS alone,
// and equal times break by lane.
func TestMergeDumpsOrdersAcrossDumps(t *testing.T) {
	a := &Dump{Epoch: 1000, Spans: []LaneSpan{
		{"A:0", Span{Name: "a-early", TS: 10}},
		{"A:0", Span{Name: "a-late", TS: 30}},
	}}
	b := &Dump{Epoch: 1015, Spans: []LaneSpan{ // b-mid's TS is the smallest
		{"B:1", Span{Name: "b-mid", TS: 5}},
		{"A:1", Span{Name: "b-tie", TS: 15}}, // 1030, the same as a-late
	}}
	var got []string
	for _, sp := range MergeDumps(a, b) {
		got = append(got, sp.Name)
	}
	if want := "a-early b-mid a-late b-tie"; strings.Join(got, " ") != want {
		t.Fatalf("merged %q, want %q", got, want)
	}
	if tl := MergeDumps(a, b); tl[0].TS != 1010 {
		t.Fatalf("merged TS %d, want the absolute 1010", tl[0].TS)
	}
}
