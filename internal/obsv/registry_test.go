package obsv

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core.export.skips", L("program", "F"))
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("core.export.skips", L("program", "F")) != c {
		t.Fatal("lookup did not return the existing counter")
	}
	// Different labels are distinct.
	if r.Counter("core.export.skips", L("program", "U")).Load() != 0 {
		t.Fatal("differently-labelled counter shared state")
	}

	g := r.Gauge("core.pipeline.depth", L("conn", "F>U"))
	g.Set(3)
	g.Add(-1)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.SetMax(10)
	g.SetMax(7)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge after SetMax = %d, want 10", got)
	}
}

// TestSumReadsByNameAndLabels: Sum folds one instrument's label sets,
// filtered by the labels asked for, and never matches a label value prefix.
func TestSumReadsByNameAndLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.data.sends", L("program", "F"), L("rank", "0")).Add(3)
	r.Counter("core.data.sends", L("program", "F"), L("rank", "1")).Add(4)
	r.Counter("core.data.sends", L("program", "FF"), L("rank", "1")).Add(100)
	r.Counter("core.data.dropped", L("program", "F")).Add(1000)
	snap := r.Snapshot()
	for _, c := range []struct {
		match []Label
		want  float64
	}{
		{nil, 107},
		{[]Label{L("program", "F")}, 7},
		{[]Label{L("program", "F"), L("rank", "1")}, 4},
		{[]Label{L("rank", "1")}, 104},
		{[]Label{L("program", "U")}, 0},
	} {
		if got := Sum(snap, "core.data.sends", c.match...); got != c.want {
			t.Errorf("Sum(core.data.sends, %v) = %v, want %v", c.match, got, c.want)
		}
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetMax(9)
	h.Observe(5)
	r.GaugeFunc("w", func() float64 { return 1 })
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestUntracedInstrumentsZeroAlloc prices the default production path of the
// data plane: the per-job instrument sequence of core's dispatchLocked and
// sender (counters, a peak gauge, and a span record on the nil ring a
// disabled tracer hands out) must not allocate — nor may a flight event
// (an flt.* span) recorded with tracing and Diag off.
func TestUntracedInstrumentsZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	l := L("conn", "F.f>U.f")
	stall := reg.Counter("core.export.stall.ns", l)
	queued := reg.Counter("core.pipeline.jobs", l)
	sends := reg.Counter("core.data.sends", l)
	flushes := reg.Counter("core.pipeline.flushes", l)
	depth := reg.Gauge("core.pipeline.peak.depth", l)
	var tracer *Tracer
	ring := tracer.Ring("F", 0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		stall.Add(uint64(i & 1))
		queued.Inc()
		depth.SetMax(int64(i & 7))
		sends.Inc()
		flushes.Inc()
		ring.Record(Span{Name: "send", TS: tracer.Now(), Dur: 1, Flow: uint64(i + 1), Arg: int64(i)})
		ring.Record(Span{Name: "flt.export-stall", TS: ring.Now() - 1, Dur: 1, Detail: "F.f>U.f"})
		i++
	})
	if allocs != 0 {
		t.Fatalf("untraced instrument sequence allocates %.1f times per job, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 5555 {
		t.Fatalf("sum = %d, want 5555", h.Sum())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b", L("k", "v")).Set(-2)
	r.GaugeFunc("c", func() float64 { return 1.5 })
	r.Histogram("d").Observe(42)
	snap := r.Snapshot()
	want := map[string]float64{
		"a": 7, "b{k=v}": -2, "c": 1.5, "d_count": 1, "d_sum": 42,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %g, want %g", k, snap[k], v)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.export.skips", L("program", "F")).Add(3)
	r.Counter("core.export.skips", L("program", "U")).Add(1)
	r.Gauge("core.pipeline.depth", L("conn", "F>U")).Set(2)
	r.GaugeFunc("buffer.pool.free", func() float64 { return 12 })
	r.Histogram("collective.allreduce.ns").Observe(1500)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE core_export_skips counter\n",
		`core_export_skips{program="F"} 3` + "\n",
		`core_export_skips{program="U"} 1` + "\n",
		"# TYPE core_pipeline_depth gauge\n",
		`core_pipeline_depth{conn="F>U"} 2` + "\n",
		"# TYPE buffer_pool_free gauge\n",
		"buffer_pool_free 12\n",
		"# TYPE collective_allreduce_ns histogram\n",
		`collective_allreduce_ns_bucket{le="2000"} 1` + "\n",
		`collective_allreduce_ns_bucket{le="+Inf"} 1` + "\n",
		"collective_allreduce_ns_sum 1500\n",
		"collective_allreduce_ns_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q\n%s", want, out)
		}
	}
	// Exactly one TYPE line per metric name.
	if n := strings.Count(out, "# TYPE core_export_skips counter"); n != 1 {
		t.Errorf("TYPE line repeated %d times", n)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("same.name")
	r.Gauge("same.name")
}
