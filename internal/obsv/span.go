package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Span is one recorded protocol operation: an export decision, an import
// wait, a forwarded request, a buddy-help send. Spans that belong to the
// same logical request share a Flow ID (the trace ID piggybacked on the
// wire), which becomes a Perfetto flow arrow crossing process lanes.
type Span struct {
	Name   string // operation name ("export", "import", "forward", ...)
	TS     int64  // start, nanoseconds since the tracer epoch
	Dur    int64  // duration in nanoseconds (0 renders as an instant)
	Flow   uint64 // trace ID linking causally related spans; 0 = none
	Arg    int64  // operation-specific scalar (request ID, bytes, step)
	Detail string // free-form annotation ("skip", "copy", region)
}

// Ring is a fixed-size lock-free span buffer for one process lane. Writers
// claim a slot with an atomic increment and publish the span with an atomic
// pointer store; the reader (trace export) loads pointers atomically, so a
// live run can be dumped without stopping the world and without racing.
type Ring struct {
	proc  string  // lane name, e.g. "F:2" or "U:rep"
	pid   int     // Chrome trace pid (per program)
	tid   int     // Chrome trace tid (rank+2; rep is 1)
	t     *Tracer // the owner, whose clock and epoch Now reads
	next  atomic.Uint64
	slots []atomic.Pointer[Span]
}

// Now returns nanoseconds since the owning tracer's epoch on its clock (0 on
// a nil ring): the time base of every span on the ring, for recorders that
// hold only the ring.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return r.t.Now()
}

// Record appends a span to the ring, overwriting the oldest entry once the
// ring wraps. Safe on a nil ring and from any goroutine.
func (r *Ring) Record(s Span) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	sp := s
	r.slots[i%uint64(len(r.slots))].Store(&sp)
}

// Spans copies out the published spans in record order, oldest claimed slot
// first (best effort while writers are active). Once the ring has wrapped
// the oldest retained span sits at slot next%len, so reading starts there:
// spans stamped in the same clock tick keep the order they were recorded in.
func (r *Ring) Spans() []Span {
	if r == nil {
		return nil
	}
	n, size := r.next.Load(), uint64(len(r.slots))
	first := uint64(0)
	if n > size {
		first = n - size
	}
	out := make([]Span, 0, n-first)
	for i := first; i < n; i++ {
		if sp := r.slots[i%size].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	return out
}

// DefaultRingSpans is the per-process span capacity when NewTracer is given
// zero.
const DefaultRingSpans = 1 << 14

// Tracer owns the process lanes and mints trace IDs. A nil *Tracer is the
// disabled state: every method no-ops, so the hot path pays one nil check.
type Tracer struct {
	clock    vclock.Clock
	epoch    time.Time
	ringSize int
	nextID   atomic.Uint64

	mu    sync.Mutex
	rings []*Ring
	pids  map[string]int // program -> Chrome pid
}

// NewTracer returns an enabled tracer whose rings hold ringSize spans each
// (0 means DefaultRingSpans), stamping spans on clock (nil = wall time) —
// pass the framework clock, so spans under the virtual clock carry simulated
// time and dumps from several tracers on one clock merge in order.
func NewTracer(ringSize int, clock vclock.Clock) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSpans
	}
	clock = vclock.Or(clock)
	t := &Tracer{clock: clock, epoch: clock.Now(), ringSize: ringSize, pids: make(map[string]int)}
	// Seed so IDs from independent runs in one process rarely collide with
	// zero (0 means "no trace" on the wire).
	t.nextID.Store(1)
	return t
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// NewSpanID mints a nonzero trace ID for a new logical request.
func (t *Tracer) NewSpanID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Now returns nanoseconds since the tracer epoch on its clock (0 when
// disabled).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(t.clock.Since(t.epoch))
}

// Ring returns (creating on first use) the span lane for a process. The
// lane name is "program:rank" or "program:rep"; program decides the Chrome
// pid, lane the tid. Returns nil when the tracer is disabled, so callers
// can store the result and nil-check per record.
func (t *Tracer) Ring(program string, rank int) *Ring {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	proc := fmt.Sprintf("%s:%d", program, rank)
	tid := rank + 2
	if rank < 0 { // representative lane
		proc = program + ":rep"
		tid = 1
	}
	for _, r := range t.rings {
		if r.proc == proc {
			return r
		}
	}
	pid, ok := t.pids[program]
	if !ok {
		pid = len(t.pids) + 1
		t.pids[program] = pid
	}
	r := &Ring{proc: proc, pid: pid, tid: tid, t: t, slots: make([]atomic.Pointer[Span], t.ringSize)}
	t.rings = append(t.rings, r)
	return r
}

// chromeEvent is one entry of the Chrome trace_event JSON array. Perfetto
// and chrome://tracing both consume this shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the whole JSON document. otherData carries what a reader
// needs to merge traces from several tracers: the epoch, in Unix nanoseconds
// on the tracer's clock, and (for a flight dump) why it was written.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	OtherData   traceMeta     `json:"otherData"`
}

type traceMeta struct {
	EpochNS int64  `json:"epoch_unix_ns"`
	Reason  string `json:"reason,omitempty"`
}

// WriteChromeTrace dumps every ring as Chrome trace_event JSON: "M"
// metadata events naming the process/thread lanes, "X" complete events for
// the spans, and "s"/"t"/"f" flow events stitching spans that share a Flow
// ID into cross-process arrows (exporter decision → importer receipt).
func (t *Tracer) WriteChromeTrace(w io.Writer) error { return t.writeTrace(w, "") }

func (t *Tracer) writeTrace(w io.Writer, reason string) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	rings := append([]*Ring(nil), t.rings...)
	pids := make(map[string]int, len(t.pids))
	for k, v := range t.pids {
		pids[k] = v
	}
	t.mu.Unlock()

	events := []chromeEvent{}
	for prog, pid := range pids {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "program " + prog},
		})
	}
	type flowPoint struct {
		ts       float64
		pid, tid int
	}
	flows := make(map[uint64][]flowPoint)
	for _, r := range rings {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: r.pid, Tid: r.tid,
			Args: map[string]any{"name": r.proc},
		})
		for _, sp := range r.Spans() {
			ev := chromeEvent{
				Name: sp.Name, Ph: "X", Cat: "proto",
				TS: float64(sp.TS) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: r.pid, Tid: r.tid,
			}
			if ev.Dur <= 0 {
				ev.Dur = 1 // zero-width slices are invisible in Perfetto
			}
			args := map[string]any{}
			if sp.Arg != 0 {
				args["arg"] = sp.Arg
			}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			if sp.Flow != 0 {
				args["flow"] = sp.Flow
				flows[sp.Flow] = append(flows[sp.Flow], flowPoint{ev.TS, r.pid, r.tid})
			}
			if len(args) > 0 {
				ev.Args = args
			}
			events = append(events, ev)
		}
	}
	// Flow arrows: start at the earliest span of a flow, step through the
	// rest, finish at the last. bp:"e" binds to the enclosing slice.
	flowIDs := make([]uint64, 0, len(flows))
	for id := range flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		pts := flows[id]
		if len(pts) < 2 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].ts < pts[j].ts })
		for i, p := range pts {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(pts) - 1:
				ph = "f"
			}
			events = append(events, chromeEvent{
				Name: "req", Ph: ph, Cat: "flow", ID: fmt.Sprintf("%#x", id),
				TS: p.ts, Pid: p.pid, Tid: p.tid, BP: "e",
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTrace{events, traceMeta{t.epoch.UnixNano(), reason}})
}
