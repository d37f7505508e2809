package obsv

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// Flight events are spans named "flt.<kind>" on the same rings as every
// other span (docs/OBSERVABILITY.md lists the kinds), and a flight dump is
// the tracer's Chrome trace written to a file: Perfetto opens it as is, and
// ReadDump/MergeDumps turn several of them back into one timeline.

// DumpFile writes the tracer's Chrome trace, tagged with reason, to a new
// flight-*.json file in dir (created if missing; "" = the OS temp directory)
// and returns its path. A nil tracer writes nothing and returns "".
func (t *Tracer) DumpFile(dir, reason string) (string, error) {
	if t == nil {
		return "", nil
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	f, err := os.CreateTemp(dir, "flight-*.json")
	if err != nil {
		return "", err
	}
	err = t.writeTrace(f, reason)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return f.Name(), nil
}

// Dump is a decoded trace file: a flight dump, or any WriteChromeTrace output.
type Dump struct {
	Reason string
	Epoch  int64      // the tracer's epoch, Unix nanoseconds on its clock
	Spans  []LaneSpan // the "X" events, in file order; TS relative to Epoch
}

// LaneSpan is a span read back from a dump, with the lane it was recorded on
// ("F:2", "U:rep").
type LaneSpan struct {
	Lane string
	Span
}

// ReadDump reads and decodes a trace file. It rejects anything that is not a
// JSON object with a traceEvents array.
func ReadDump(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := decodeDump(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func decodeDump(b []byte) (*Dump, error) {
	var doc chromeTrace
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("obsv: not a trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, errors.New("obsv: not a trace: no traceEvents")
	}
	lanes := make(map[[2]int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[[2]int{ev.Pid, ev.Tid}], _ = ev.Args["name"].(string)
		}
	}
	d := &Dump{Reason: doc.OtherData.Reason, Epoch: doc.OtherData.EpochNS}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sp := Span{Name: ev.Name, TS: int64(math.Round(ev.TS * 1e3)), Dur: int64(math.Round(ev.Dur * 1e3))}
		sp.Detail, _ = ev.Args["detail"].(string)
		if a, ok := ev.Args["arg"].(float64); ok {
			sp.Arg = int64(a)
		}
		if f, ok := ev.Args["flow"].(float64); ok {
			sp.Flow = uint64(f)
		}
		d.Spans = append(d.Spans, LaneSpan{Lane: lanes[[2]int{ev.Pid, ev.Tid}], Span: sp})
	}
	return d, nil
}

// MergeDumps interleaves the spans of several dumps into one timeline on the
// tracers' shared clock (virtual time under DST, wall time otherwise): each
// returned span's TS is absolute, its dump's Epoch plus its own TS. Ties
// break by lane, then by dump and file order, so the merge is deterministic.
func MergeDumps(dumps ...*Dump) []LaneSpan {
	var out []LaneSpan
	for _, d := range dumps {
		for _, s := range d.Spans {
			s.TS += d.Epoch
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}
