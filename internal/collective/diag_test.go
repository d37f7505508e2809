package collective

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Straggler attribution lives at the coupling layer (the rep votes from the
// Latest timestamps its processes report; see core and obsv/diag). These
// tests pin what is left here: a Comm has one wire layout — every payload is
// the 8-byte header followed by the body — whatever is attached to it, and
// the span ring it may carry records only the fault events.

// tapNet records the length of every collective payload each rank sends, in
// send order. The tap only observes: its endpoints pass the inner frame pool
// through, so a tapped Comm pools exactly as an untapped one.
type tapNet struct {
	*transport.MemNetwork
	mu   sync.Mutex
	lens map[int][]int
}

type tapEndpoint struct {
	transport.Endpoint
	net  *tapNet
	rank int
}

func newTapNet() *tapNet {
	return &tapNet{MemNetwork: transport.NewMemNetwork(), lens: make(map[int][]int)}
}

func (n *tapNet) Register(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.MemNetwork.Register(addr)
	if err != nil {
		return nil, err
	}
	return &tapEndpoint{Endpoint: ep, net: n, rank: addr.Rank}, nil
}

func (e *tapEndpoint) Send(m transport.Message) error {
	if m.Kind == transport.KindCollective {
		e.net.mu.Lock()
		e.net.lens[e.rank] = append(e.net.lens[e.rank], len(m.Payload))
		e.net.mu.Unlock()
	}
	return e.Endpoint.Send(m)
}

// runTapped runs fn on every rank of a size-rank group over a tapNet and
// returns the per-rank payload lengths. With ring set, each rank carries its
// own lane of one tracer, as core wires it, and the lanes are returned too.
func runTapped(t *testing.T, size int, ring bool, fn func(c *Comm) error) (map[int][]int, []*obsv.Ring) {
	t.Helper()
	net := newTapNet()
	var rings []*obsv.Ring
	tracer := obsv.NewTracer(1<<10, nil)
	runGroupOn(t, net, size, func(c *Comm) error {
		if ring {
			c.SetRing(tracer.Ring("G", c.Rank()))
		}
		return fn(c)
	})
	if ring {
		for r := 0; r < size; r++ {
			rings = append(rings, tracer.Ring("G", r))
		}
	}
	return net.lens, rings
}

// opMix runs every operation once (both AllReduce algorithms, both Bcast
// paths) and checks each result.
func opMix(n int) func(c *Comm) error {
	return func(c *Comm) error {
		vals := []float64{float64(c.Rank()), 2, 0.5}
		sum, err := c.AllReduce(vals, Sum)
		if err != nil {
			return err
		}
		wantSum := float64(n-1) * float64(n) / 2
		if sum[0] != wantSum || sum[1] != 2*float64(n) {
			return fmt.Errorf("allreduce got %v", sum)
		}
		if _, err := c.force(Ring).AllReduce(make([]float64, 64), Sum); err != nil {
			return err
		}
		msg := []byte("the payload")
		got, err := c.Bcast(0, append([]byte(nil), msg...))
		if err != nil {
			return err
		}
		if string(got) != string(msg) {
			return fmt.Errorf("bcast got %q", got)
		}
		big := make([]byte, 300<<10) // forces the segmented pipeline
		for i := range big {
			big[i] = byte(i)
		}
		gotBig, err := c.force(BinomialSeg).Bcast(0, big)
		if err != nil {
			return err
		}
		for i := range gotBig {
			if gotBig[i] != byte(i) {
				return fmt.Errorf("seg bcast corrupt at %d", i)
			}
		}
		c.SetTable(nil) // back to the defaults for the rest of the mix
		part := []byte{byte(c.Rank())}
		parts, err := c.Gather(0, part)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := range parts {
				if len(parts[r]) != 1 || parts[r][0] != byte(r) {
					return fmt.Errorf("gather entry %d = %v", r, parts[r])
				}
			}
		}
		all, err := c.AllGather(part)
		if err != nil {
			return err
		}
		for r := range all {
			if len(all[r]) != 1 || all[r][0] != byte(r) {
				return fmt.Errorf("allgather entry %d = %v", r, all[r])
			}
		}
		if _, err := c.force(Ring).AllGather(part); err != nil {
			return err
		}
		c.SetTable(nil)
		return c.Barrier()
	}
}

// TestDiagTrailerPreservesResults re-runs every operation with a span ring
// attached on every rank: the results still come out right, and every rank
// sends exactly the payloads it sends without one — the ring is invisible
// on the wire.
func TestDiagTrailerPreservesResults(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			bare, _ := runTapped(t, n, false, opMix(n))
			ringed, _ := runTapped(t, n, true, opMix(n))
			if !reflect.DeepEqual(bare, ringed) {
				t.Fatalf("payload lengths differ with a ring attached:\nbare   %v\nringed %v", bare, ringed)
			}
		})
	}
}

// TestDiagFoldWireFormat pins the one wire layout: a payload is the 8-byte
// operation header followed by the body — the float64 vector of a
// recursive-doubling AllReduce round, the part of a Gather — and nothing
// else.
func TestDiagFoldWireFormat(t *testing.T) {
	const n, k = 4, 5
	lens, _ := runTapped(t, n, true, func(c *Comm) error {
		if _, err := c.force(RecursiveDoubling).AllReduce(make([]float64, k), Sum); err != nil {
			return err
		}
		_, err := c.Gather(0, []byte("abc"))
		return err
	})
	vec := hdrLen + wire.Float64sSize(k)
	for r := 0; r < n; r++ {
		want := []int{vec, vec} // log2(4) exchange rounds
		if r != 0 {
			want = append(want, hdrLen+3)
		}
		if !reflect.DeepEqual(lens[r], want) {
			t.Fatalf("rank %d sent payloads of %v bytes, want %v", r, lens[r], want)
		}
	}
}

// TestDiagBlamesSlowRank: a rank sleeping 1ms before every AllReduce changes
// no payload length, under both algorithms, and the ranks' lanes record no
// per-operation span — collectives are blamed nowhere on the wire.
func TestDiagBlamesSlowRank(t *testing.T) {
	const (
		size = 8
		slow = 5
		ops  = 40
	)
	for _, algo := range []Algo{RecursiveDoubling, Ring} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			run := func(delay time.Duration, ring bool) (map[int][]int, []*obsv.Ring) {
				return runTapped(t, size, ring, func(c *Comm) error {
					vals := make([]float64, 256)
					c.force(algo)
					for i := 0; i < ops; i++ {
						if c.Rank() == slow {
							time.Sleep(delay)
						}
						if _, err := c.AllReduce(vals, Sum); err != nil {
							return err
						}
					}
					return nil
				})
			}
			bare, _ := run(0, false)
			slowed, rings := run(time.Millisecond, true)
			if !reflect.DeepEqual(bare, slowed) {
				t.Fatalf("a slow rank changed the payloads:\nbare   %v\nslowed %v", bare, slowed)
			}
			for r, ring := range rings {
				if spans := ring.Spans(); len(spans) != 0 {
					t.Fatalf("rank %d recorded %+v on a healthy group", r, spans)
				}
			}
		})
	}
}

// TestDiagDetach verifies SetRing(nil) stops the fault-event spans: the
// revoke and shrink of an attached Comm are recorded, the revoke of its
// detached successor is not.
func TestDiagDetach(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	ep, _ := net.Register(transport.Proc("G", 0))
	c, err := New(transport.NewDispatcher(ep), "G", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := obsv.NewTracer(64, nil).Ring("G", 0)
	c.SetRing(ring)
	c.Revoke()
	nc, err := c.Shrink(nil)
	if err != nil {
		t.Fatal(err)
	}
	names := func() (out []string) {
		for _, sp := range ring.Spans() {
			out = append(out, sp.Name)
		}
		return out
	}
	if got := names(); !reflect.DeepEqual(got, []string{"flt.revoke", "flt.shrink"}) {
		t.Fatalf("attached ring holds %v, want the revoke and the shrink", got)
	}
	nc.SetRing(nil)
	nc.Revoke()
	if got := names(); len(got) != 2 {
		t.Fatalf("detached Comm still records: %v", got)
	}
	if _, err := nc.AllReduce([]float64{1}, Sum); err != ErrRevoked {
		t.Fatalf("AllReduce on a revoked Comm: %v, want ErrRevoked", err)
	}
}

// TestDiagStragglerInstruments: the collective instrument catalog holds the
// latency histograms, the failure counters and the pool instruments, and no
// per-operation straggler instrument.
func TestDiagStragglerInstruments(t *testing.T) {
	reg := obsv.NewRegistry()
	const size, slow = 4, 2
	runGroup(t, size, func(c *Comm) error {
		c.SetInstruments(NewInstruments(reg, "G"))
		for i := 0; i < 10; i++ {
			if c.Rank() == slow {
				time.Sleep(500 * time.Microsecond)
			}
			if _, err := c.AllReduce([]float64{1}, Sum); err != nil {
				return err
			}
		}
		return nil
	})
	snap := reg.Snapshot()
	if snap[`collective.allreduce.rd.ns{program=G}_count`] != 10*size {
		t.Fatalf("allreduce histogram count = %v, want %d", snap[`collective.allreduce.rd.ns{program=G}_count`], 10*size)
	}
	for name := range snap {
		if strings.Contains(name, "straggler") {
			t.Fatalf("straggler instrument %s registered", name)
		}
	}
}
