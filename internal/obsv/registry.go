// Package obsv is the framework's runtime observability layer: a
// low-overhead registry of named atomic instruments (counters, gauges,
// histograms) with Prometheus text exposition, per-process span rings whose
// contents export as Chrome trace_event JSON (loadable in Perfetto, with
// cross-process flow edges), and a live-introspection HTTP server
// (/metrics, /trace, /statusz, /debug/pprof).
//
// The package is a leaf: it imports only the standard library, so every
// subsystem (core, transport, buffer, collective, harness) can hold its
// counters here instead of in ad-hoc stat structs. Hot-path discipline:
// instruments are preallocated at wiring time and updated with single atomic
// operations; span recording behind a disabled tracer is one nil check.
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of an instrument (rendered in
// Prometheus label syntax). Keep cardinality bounded: programs, connection
// keys and ranks are fine; timestamps and request IDs are not.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic instrument. All methods are
// safe on a nil receiver (no-ops), so optional instruments cost one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instrument that can move both ways, with a
// compare-and-swap maximum for high-water marks.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (atomic
// high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// defaultBounds are the histogram bucket upper bounds in nanoseconds:
// exponential from 1µs to ~17s, the range framework operations span.
func defaultBounds() []int64 {
	bounds := make([]int64, 25)
	v := int64(1000)
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Histogram is a fixed-bound atomic histogram (counts per bucket plus sum),
// rendered in Prometheus cumulative-bucket form. Observations beyond the
// last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64
	inf     atomic.Uint64
	sum     atomic.Int64
}

// NewHistogram returns a histogram with the given ascending upper bounds
// (nil means the default nanosecond-duration bounds). Registry.Histogram is
// the usual constructor; this one serves tests and custom bucket layouts.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = defaultBounds()
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value (for duration instruments: nanoseconds).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	// Linear scan: 25 bounds, and most observations land in the first few
	// comparisons' reach; a branchless binary search buys nothing here.
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	n := h.inf.Load()
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]):
// the smallest bucket bound whose cumulative count reaches q of the total.
// Observations in the implicit +Inf bucket report the last finite bound, so
// the estimate never invents values beyond the layout. Returns 0 on an
// empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if cum >= target {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// instrument kinds for exposition.
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type instrument struct {
	name   string
	labels []Label
	kind   int

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a process-wide table of named instruments. Lookups
// (get-or-create) take a mutex and happen at wiring time; the returned
// instruments are lock-free. Instrument names use dotted lower-case words
// ("core.export.skips"); the Prometheus exposition maps them to underscore
// form ("core_export_skips").
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	order []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// key renders the unique identity of an instrument: name plus labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// lookup returns the instrument registered under (name, labels), creating it
// with mk when absent. A kind mismatch on an existing name is a programming
// bug and panics.
func (r *Registry) lookup(name string, labels []Label, kind int, mk func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if ins, ok := r.byKey[k]; ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("obsv: instrument %q re-registered with a different kind", k))
		}
		return ins
	}
	ins := mk()
	ins.name, ins.labels, ins.kind = name, labels, kind
	r.byKey[k] = ins
	r.order = append(r.order, ins)
	return ins
}

// Counter returns the named counter, creating it on first use. Safe on a
// nil registry (returns a nil, no-op counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, func() *instrument {
		return &instrument{counter: &Counter{}}
	}).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, func() *instrument {
		return &instrument{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed at exposition time —
// the bridge for subsystems that already keep their own counters under a
// lock (buffer pools, the coalescing layer). Re-registering a name replaces
// the function (a re-wired framework supersedes the old closure).
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	ins := r.lookup(name, labels, kindGaugeFunc, func() *instrument {
		return &instrument{}
	})
	r.mu.Lock()
	ins.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram (default duration bounds), creating
// it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, func() *instrument {
		return &instrument{hist: NewHistogram(nil)}
	}).hist
}

// Snapshot returns every scalar instrument's current value keyed by its
// rendered identity (histograms contribute _count and _sum entries). Tests
// and the thin stat views use it; the hot path never does.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	instruments := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]float64, len(instruments))
	for _, ins := range instruments {
		k := key(ins.name, ins.labels)
		switch ins.kind {
		case kindCounter:
			out[k] = float64(ins.counter.Load())
		case kindGauge:
			out[k] = float64(ins.gauge.Load())
		case kindGaugeFunc:
			if ins.fn != nil {
				out[k] = ins.fn()
			}
		case kindHistogram:
			out[k+"_count"] = float64(ins.hist.Count())
			out[k+"_sum"] = float64(ins.hist.Sum())
		}
	}
	return out
}

// Sum totals the Snapshot entries of the instrument called name whose label
// sets include every label of match: the by-name read that reports, exit
// summaries and tests use in place of hand-copied stat structs.
func Sum(snap map[string]float64, name string, match ...Label) float64 {
	total := 0.0
	for k, v := range snap {
		n, labels, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		ok := true
		for _, l := range match {
			ok = ok && strings.Contains("{"+labels, key("", []Label{l}))
		}
		if ok {
			total += v
		}
	}
	return total
}

// promName maps a dotted instrument name to Prometheus form.
func promName(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

// promLabels renders a label set ({a="b",c="d"}), empty for none.
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", promName(l.Key), l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), grouped by metric name with one TYPE line each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	instruments := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	// Group by name so instruments that share a metric name (different
	// labels) render contiguously under one TYPE header, as the format
	// requires; within a name, order by label set so the exposition does
	// not depend on wiring order (pinned by the golden test).
	sort.SliceStable(instruments, func(i, j int) bool {
		if instruments[i].name != instruments[j].name {
			return instruments[i].name < instruments[j].name
		}
		return key(instruments[i].name, instruments[i].labels) < key(instruments[j].name, instruments[j].labels)
	})
	lastName := ""
	for _, ins := range instruments {
		name := promName(ins.name)
		if ins.name != lastName {
			lastName = ins.name
			typ := "counter"
			switch ins.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
				return err
			}
		}
		ls := promLabels(ins.labels)
		var err error
		switch ins.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", name, ls, ins.counter.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", name, ls, ins.gauge.Load())
		case kindGaugeFunc:
			v := 0.0
			if ins.fn != nil {
				v = ins.fn()
			}
			_, err = fmt.Fprintf(w, "%s%s %g\n", name, ls, v)
		case kindHistogram:
			err = writePromHistogram(w, name, ins.labels, ins.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram's cumulative buckets.
func writePromHistogram(w io.Writer, name string, labels []Label, h *Histogram) error {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		ls := append(append([]Label(nil), labels...), L("le", fmt.Sprintf("%g", float64(bound))))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ls), cum); err != nil {
			return err
		}
	}
	cum += h.inf.Load()
	ls := append(append([]Label(nil), labels...), L("le", "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ls), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, promLabels(labels), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(labels), cum)
	return err
}
