package collective

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/transport"
)

// allocGroup spins up a MemNetwork group with pre-spawned per-rank worker
// goroutines that each run one operation per trigger, so the measurement
// loop allocates nothing itself (no goroutine spawns per iteration).
type allocGroup struct {
	net     *transport.MemNetwork
	comms   []*Comm
	trigger []chan struct{}
	done    chan error
	wg      sync.WaitGroup
}

func newAllocGroup(t *testing.T, size int, fn func(c *Comm) error) *allocGroup {
	t.Helper()
	g := &allocGroup{
		net:     transport.NewMemNetwork(),
		comms:   make([]*Comm, size),
		trigger: make([]chan struct{}, size),
		done:    make(chan error, size),
	}
	for r := 0; r < size; r++ {
		ep, err := g.net.Register(transport.Proc("A", r))
		if err != nil {
			t.Fatal(err)
		}
		g.comms[r], err = New(transport.NewDispatcher(ep), "A", r, size)
		if err != nil {
			t.Fatal(err)
		}
		g.comms[r].SetTimeout(30 * time.Second)
		g.trigger[r] = make(chan struct{})
	}
	for r := 0; r < size; r++ {
		c := g.comms[r]
		tr := g.trigger[r]
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for range tr {
				g.done <- fn(c)
			}
		}()
	}
	return g
}

// round triggers one operation on every rank and waits for all to finish.
func (g *allocGroup) round(t *testing.T) {
	for _, tr := range g.trigger {
		tr <- struct{}{}
	}
	for range g.comms {
		if err := <-g.done; err != nil {
			t.Fatal(err)
		}
	}
}

func (g *allocGroup) close() {
	for _, tr := range g.trigger {
		close(tr)
	}
	g.wg.Wait()
	g.net.Close()
}

// measureAllocs returns total heap allocations (mallocs) across the whole
// process during iters rounds: the lowest of up to 16 consecutive windows,
// stopping at the first that allocates nothing. The count is process-wide, so
// it sees the runtime's own warm-up: a goroutine that blocks in a select
// takes a sudog from its P's cache, the goroutine that wakes it returns the
// sudog to its own P's, and until the process holds enough of them (~130) for
// the full cache to spill back through the central list, the P that runs dry
// allocates — in bursts of tens per window, for the first dozen windows of a
// process. A real per-operation allocation shows in every window, so the
// gates on the result lose nothing. One collection up front, none between
// the windows: a collection empties the central list again.
func measureAllocs(t *testing.T, g *allocGroup, iters int) uint64 {
	t.Helper()
	runtime.GC()
	lowest := ^uint64(0)
	var before, after runtime.MemStats
	for w := 0; w < 16 && lowest > 0; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			g.round(t)
		}
		runtime.ReadMemStats(&after)
		if m := after.Mallocs - before.Mallocs; m < lowest {
			lowest = m
		}
	}
	return lowest
}

// TestAllReduceSteadyStateZeroAlloc pins the zero-allocation hot path: on a
// plain New over the in-memory transport, steady-state in-place
// AllReduce (both algorithms) performs no heap allocations — no per-round
// tag strings, no encode buffers, no timer, no queue churn. This is the
// allocs-per-op regression test for the satellite "fix per-round tag
// allocation churn".
func TestAllReduceSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const (
		ranks  = 4
		vecLen = 1024
		iters  = 50
	)
	for _, algo := range []Algo{RecursiveDoubling, Ring} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			vecs := make([][]float64, ranks)
			for r := range vecs {
				vecs[r] = make([]float64, vecLen)
			}
			g := newAllocGroup(t, ranks, func(c *Comm) error {
				return c.AllReduceInPlace(vecs[c.Rank()], Max)
			})
			defer g.close()
			for _, c := range g.comms {
				c.force(algo)
			}
			// Warm up pools, scratch, pending capacity and mailbox seq maps.
			for i := 0; i < 16; i++ {
				g.round(t)
			}
			mallocs := measureAllocs(t, g, iters)
			perOp := float64(mallocs) / float64(iters*ranks)
			t.Logf("%s: %d mallocs over %d ops (%.3f/op)", algo, mallocs, iters*ranks, perOp)
			// The whole process (all ranks, dispatchers, pumps) gets a tiny
			// slack for runtime-internal allocations; the collective path
			// itself must be allocation-free.
			if mallocs > 10 {
				t.Fatalf("%s steady-state AllReduce allocated %d times over %d ops (want 0)",
					algo, mallocs, iters*ranks)
			}
		})
	}
}

// TestDiagOnSteadyStateZeroAlloc extends the zero-alloc regression to a
// Comm carrying a span ring, as core wires every process's Comm: a healthy
// group records no fault event, so the ring costs nothing per operation.
func TestDiagOnSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const (
		ranks  = 8
		vecLen = 1024
		iters  = 50
	)
	vecs := make([][]float64, ranks)
	for r := range vecs {
		vecs[r] = make([]float64, vecLen)
	}
	g := newAllocGroup(t, ranks, func(c *Comm) error {
		return c.AllReduceInPlace(vecs[c.Rank()], Max)
	})
	defer g.close()
	tracer := obsv.NewTracer(64, nil)
	for _, c := range g.comms {
		c.force(RecursiveDoubling).SetRing(tracer.Ring("A", c.Rank()))
	}
	for i := 0; i < 16; i++ {
		g.round(t)
	}
	mallocs := measureAllocs(t, g, iters)
	if mallocs > 10 {
		t.Fatalf("steady-state AllReduce with a span ring attached allocated %d times over %d ops (want 0)",
			mallocs, iters*ranks)
	}
}

// TestBarrierSteadyStateZeroAlloc extends the regression to the header-only
// control path.
func TestBarrierSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := newAllocGroup(t, 4, func(c *Comm) error { return c.Barrier() })
	defer g.close()
	for i := 0; i < 16; i++ {
		g.round(t)
	}
	mallocs := measureAllocs(t, g, 50)
	if mallocs > 10 {
		t.Fatalf("steady-state Barrier allocated %d times over 200 ops (want 0)", mallocs)
	}
}

// TestScalarSteadyStateZeroAlloc extends the regression to the scalar
// reductions, which fold through the Comm's one-element vector instead of
// allocating an input and a result slice per call. The Reduce root rotates:
// a rooted operation moves frames one way, so with a fixed root the leaves'
// pools run dry and the root's fills.
func TestScalarSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const ranks = 4
	var step [ranks]int
	g := newAllocGroup(t, ranks, func(c *Comm) error {
		sum, err := c.AllReduceScalar(float64(c.Rank()), Sum)
		if err != nil || sum != ranks*(ranks-1)/2 {
			return fmt.Errorf("AllReduceScalar = %v, %v", sum, err)
		}
		step[c.Rank()]++
		root := step[c.Rank()] % ranks
		top, err := c.ReduceScalar(root, float64(c.Rank()), Max)
		if want := float64(ranks - 1); err != nil || (c.Rank() == root && top != want) || (c.Rank() != root && top != 0) {
			return fmt.Errorf("ReduceScalar to %d at rank %d = %v, %v", root, c.Rank(), top, err)
		}
		return nil
	})
	defer g.close()
	for i := 0; i < 16; i++ {
		g.round(t)
	}
	mallocs := measureAllocs(t, g, 50)
	if mallocs > 10 {
		t.Fatalf("steady-state scalar reductions allocated %d times over 400 ops (want 0)", mallocs)
	}
}
