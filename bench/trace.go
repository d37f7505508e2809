package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
)

// The traced pass records spans and counts from the benchmark's own files,
// at the boundaries it can see from outside the program: the calls it makes
// into core and collective, and every transport Send and delivered Recv
// through the Network decorator in adapter.go. Nothing is recorded inside
// the program.

// msgClass groups the program's message kinds the way the per-layer
// transport metrics report them.
type msgClass uint8

const (
	classControl msgClass = iota
	classData
	classBuddy
	classCollective
	numClasses
)

// span is one timed interval. who is the process it ran on ("F:3", "U:0",
// "bench:2"); id is the step or request number it belongs to.
type span struct {
	name       string
	who        string
	id         int
	start, end int64
	class      msgClass
	bytes      int
	parent     int // index into tracer.spans after resolve; -1 = root
}

const (
	spanStep = "step"
	spanSend = "transport.send"
	spanHop  = "transport.hop"
)

// maxChromeEvents caps the Chrome trace file; metrics always use every span.
const maxChromeEvents = 250000

type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call records one benchmark call into the program (or one step of the
// designated process, name spanStep).
func (t *tracer) call(name, who string, id int, start, end int64) {
	if t == nil {
		return
	}
	t.add(span{name: name, who: who, id: id, start: start, end: end})
}

// send records a transport Send (entry to return) on the sending process.
func (t *tracer) send(who string, class msgClass, bytes int, start, end int64) {
	t.add(span{name: spanSend, who: who, id: -1, start: start, end: end, class: class, bytes: bytes})
}

// hop records a delivered message: Send entry on the sender to Recv return
// on the receiving process who.
func (t *tracer) hop(who string, class msgClass, bytes int, sent, received int64) {
	t.add(span{name: spanHop, who: who, id: -1, start: sent, end: received, class: class, bytes: bytes})
}

// resolve gives every span its parent. A transport span belongs to the
// benchmark call that was open on the same process when it happened (for a
// hop: when it was delivered); goroutine identity cannot be observed from
// outside the program, so the process and the time decide. Failing that, and
// for the calls themselves, the parent is the step of the designated process
// whose interval contains the span.
func (t *tracer) resolve() {
	calls := map[string][]int{}
	var steps []int
	for i, s := range t.spans {
		switch s.name {
		case spanStep:
			steps = append(steps, i)
		case spanSend, spanHop:
		default:
			calls[s.who] = append(calls[s.who], i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].start < t.spans[idx[b]].start })
	}
	byStart(steps)
	for _, idx := range calls {
		byStart(idx)
	}
	// enclosing returns the span of idx (sorted by start, non-overlapping)
	// whose interval contains at, or -1.
	enclosing := func(idx []int, at int64) int {
		k := sort.Search(len(idx), func(i int) bool { return t.spans[idx[i]].start > at }) - 1
		if k >= 0 && t.spans[idx[k]].end >= at {
			return idx[k]
		}
		return -1
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.name {
		case spanStep:
		case spanSend:
			if s.parent = enclosing(calls[s.who], s.start); s.parent < 0 {
				s.parent = enclosing(steps, s.start)
			}
		case spanHop:
			if s.parent = enclosing(calls[s.who], s.end); s.parent < 0 {
				s.parent = enclosing(steps, s.end)
			}
		default:
			s.parent = enclosing(steps, s.start)
		}
	}
}

// selfTimes returns, per span name, the summed duration and the summed self
// time: a span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() (total, self map[string]int64, count map[string]int) {
	type iv struct{ a, b int64 }
	children := map[int][]iv{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			p := t.spans[s.parent]
			a, b := max(s.start, p.start), min(s.end, p.end)
			if b > a {
				children[s.parent] = append(children[s.parent], iv{a, b})
			}
		}
	}
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for i, s := range t.spans {
		dur := s.end - s.start
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		var covered, edge int64
		edge = s.start
		for _, c := range ivs {
			if c.b <= edge {
				continue
			}
			covered += c.b - max(c.a, edge)
			edge = c.b
		}
		total[s.name] += dur
		self[s.name] += dur - covered
		count[s.name]++
	}
	return total, self, count
}

// durations returns the durations in nanoseconds of the spans keep accepts.
func (t *tracer) durations(keep func(*span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; keep(s) {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// traffic returns the messages and payload bytes sent, per class.
func (t *tracer) traffic() (msgs [numClasses]int, bytes [numClasses]int64) {
	for _, s := range t.spans {
		if s.name == spanSend {
			msgs[s.class]++
			bytes[s.class] += int64(s.bytes)
		}
	}
	return msgs, bytes
}

// writeChrome writes the spans as Chrome trace events (load in Perfetto or
// chrome://tracing): one row per process, args carrying id and parent.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	fmt.Fprint(w, `{"traceEvents":[`)
	n := min(len(t.spans), maxChromeEvents)
	for i, s := range t.spans[:n] {
		tid, ok := tids[s.who]
		if !ok {
			tid = len(tids) + 1
			tids[s.who] = tid
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"who":%q,"id":%d,"parent":%d,"bytes":%d}}`,
			s.name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.who, s.id, s.parent, s.bytes)
	}
	fmt.Fprintf(w, "\n"+`],"displayTimeUnit":"ns","otherData":{"spans":%d,"written":%d}}`+"\n", len(t.spans), n)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
