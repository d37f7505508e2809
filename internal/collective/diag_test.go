package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/diag"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// runDiagGroup is runGroup with critical-path attribution wired on every
// rank as core wires it: one shared board per group, and each rank's own
// span lane on one tracer.
func runDiagGroup(t *testing.T, size int, fn func(c *Comm) error) (*diag.Board, []*obsv.Ring) {
	t.Helper()
	board := diag.NewBoard("G", size)
	tracer := obsv.NewTracer(1<<10, nil)
	rings := make([]*obsv.Ring, size)
	net := transport.NewMemNetwork()
	defer net.Close()
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		ep, err := net.Register(transport.Proc("G", r))
		if err != nil {
			t.Fatal(err)
		}
		comms[r], err = New(transport.NewDispatcher(ep), "G", r, size)
		if err != nil {
			t.Fatal(err)
		}
		comms[r].SetTimeout(30 * time.Second)
		rings[r] = tracer.Ring("G", r)
		comms[r].SetDiag(board, rings[r])
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	return board, rings
}

// TestDiagTrailerPreservesResults re-runs every operation with the
// attribution trailer on the wire and checks the results still come out
// right: the trailer must be invisible to the operation semantics.
func TestDiagTrailerPreservesResults(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runDiagGroup(t, n, func(c *Comm) error {
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
				if _, err := c.Scan([]float64{1}, Sum); err != nil {
					return err
				}
				if _, err := c.ReduceScatter(make([]float64, n*3), Sum); err != nil {
					return err
				}
				return c.Barrier()
			})
		})
	}
}

// TestDiagBlamesSlowRank is the attribution acceptance check at the engine
// level: with one rank sleeping 1ms before every operation, the per-op
// consensus (largest-wait vote across the group) must converge on that rank
// for ≥95% of the attributed operations, under both AllReduce algorithms.
func TestDiagBlamesSlowRank(t *testing.T) {
	const (
		size = 8
		slow = 5
		ops  = 40
	)
	for _, algo := range []Algo{RecursiveDoubling, Ring} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			board, rings := runDiagGroup(t, size, func(c *Comm) error {
				vals := make([]float64, 256)
				c.force(algo)
				for i := 0; i < ops; i++ {
					if c.Rank() == slow {
						time.Sleep(time.Millisecond)
					}
					if _, err := c.AllReduce(vals, Sum); err != nil {
						return err
					}
				}
				return nil
			})
			s := board.Snapshot()
			if s.Ops != ops {
				t.Fatalf("ops = %d, want %d", s.Ops, ops)
			}
			if s.Attributed() == 0 {
				t.Fatal("no attributed ops at all")
			}
			// The race detector slows every rank by milliseconds, drowning
			// the 1ms signal; only assert attribution accuracy without it.
			if !raceEnabled {
				if f := s.Fraction(slow); f < 0.95 {
					t.Fatalf("slow rank fingered in %.1f%% of attributed ops, want >= 95%%\n%+v", 100*f, s)
				}
				top := s.Top(1)
				if len(top) == 0 || top[0].Rank != slow {
					t.Fatalf("top straggler %+v, want rank %d", top, slow)
				}
			}
			// Every rank recorded each op as an flt.collective span.
			for r, ring := range rings {
				coll := 0
				for _, sp := range ring.Spans() {
					if sp.Name == "flt.collective" && strings.HasPrefix(sp.Detail, "allreduce ") {
						coll++
					}
				}
				if coll != ops {
					t.Fatalf("rank %d: %d flt.collective spans, want %d", r, coll, ops)
				}
			}
		})
	}
}

// TestDiagFoldWireFormat pins the trailer encoding: fold-word max semantics,
// int16 rank representation (-1 = none), cascade subtraction, and the noise
// floor.
func TestDiagFoldWireFormat(t *testing.T) {
	mk := func() *Comm {
		return &Comm{
			rank: 0, size: 8,
			hlen:   hdrLen + trailerLen,
			dclk:   vclock.Wall,
			dstate: diagState{active: true, maxRank: -1},
		}
	}
	// A fresh comm stamps "no straggler yet".
	c := mk()
	p := make([]byte, c.hlen)
	c.stamp(p)
	d := mk()
	d.diagFold(3, p, false, 0, 0)
	if d.dstate.maxRank != -1 || d.dstate.maxWait != 0 {
		t.Fatalf("fold of empty trailer changed state: %+v", d.dstate)
	}
	// A peer-advertised wait wins the max fold.
	c = mk()
	c.dstate.maxWait, c.dstate.maxRank = 5_000_000, 6
	p = make([]byte, c.hlen)
	c.stamp(p)
	d = mk()
	d.dstate.maxWait, d.dstate.maxRank = 1_000_000, 2
	d.diagFold(3, p, false, 0, 0)
	if d.dstate.maxRank != 6 || d.dstate.maxWait != 5_000_000 {
		t.Fatalf("max fold lost: %+v", d.dstate)
	}
	// ... but a smaller advertised wait does not.
	d = mk()
	d.dstate.maxWait, d.dstate.maxRank = 9_000_000, 2
	d.diagFold(3, p, false, 0, 0)
	if d.dstate.maxRank != 2 || d.dstate.maxWait != 9_000_000 {
		t.Fatalf("smaller fold overwrote: %+v", d.dstate)
	}
	// Live receive: wait = send − post, and the peer's own advertised wait
	// is subtracted before blaming it (cascade collapse). Peer advertised
	// 5ms (blaming rank 6); we waited 6ms on the peer, so its intrinsic
	// contribution is 1ms < 5ms: rank 6 keeps the blame.
	sendNS := int64(10_000_000)
	putSendTS(p, sendNS)
	d = mk()
	post := sendNS - 6_000_000
	recv := sendNS + 1000
	d.diagFold(3, p, true, post, recv)
	if d.dstate.maxRank != 6 || d.dstate.maxWait != 5_000_000 {
		t.Fatalf("cascade not collapsed: %+v", d.dstate)
	}
	if d.dstate.waitNS != 6_000_000 {
		t.Fatalf("waitNS = %d, want 6ms", d.dstate.waitNS)
	}
	// If our wait dwarfs the peer's advertised wait, the peer itself is
	// blamed with the intrinsic difference.
	d = mk()
	post = sendNS - 20_000_000
	d.diagFold(3, p, true, post, sendNS+500)
	if d.dstate.maxRank != 3 || d.dstate.maxWait != 15_000_000 {
		t.Fatalf("intrinsic blame wrong: %+v", d.dstate)
	}
	// Waits below the noise floor blame nobody.
	d = mk()
	q := make([]byte, d.hlen)
	c2 := mk()
	c2.stamp(q)
	sendAt := time.Now().UnixNano()
	putSendTS(q, sendAt)
	d.diagFold(3, q, true, sendAt-5_000, sendAt+100)
	if d.dstate.maxRank != -1 {
		t.Fatalf("noise blamed: %+v", d.dstate)
	}
}

// TestDiagDetach verifies SetDiag(nil, nil) restores the bare-header wire
// format and drops the state.
func TestDiagDetach(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	ep, _ := net.Register(transport.Proc("G", 0))
	c, err := New(transport.NewDispatcher(ep), "G", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.diagEnabled() {
		t.Fatal("diag on by default")
	}
	c.SetDiag(diag.NewBoard("G", 1), nil)
	if !c.diagEnabled() || c.Board() == nil {
		t.Fatal("diag not enabled")
	}
	c.SetDiag(nil, nil)
	if c.diagEnabled() || c.Board() != nil {
		t.Fatal("diag not detached")
	}
	if _, err := c.AllReduce([]float64{1}, Sum); err != nil {
		t.Fatal(err)
	}
}

// TestDiagStragglerInstruments checks the collective.<op>.straggler.*
// instruments and the quantile status rendering fill in under diagnosis.
func TestDiagStragglerInstruments(t *testing.T) {
	reg := obsv.NewRegistry()
	const size, slow = 4, 2
	board := diag.NewBoard("G", size)
	net := transport.NewMemNetwork()
	defer net.Close()
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		ep, _ := net.Register(transport.Proc("G", r))
		c, err := New(transport.NewDispatcher(ep), "G", r, size)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTimeout(30 * time.Second)
		c.SetDiag(board, nil)
		c.SetInstruments(NewInstruments(reg, "G"))
		comms[r] = c
	}
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if c.Rank() == slow {
					time.Sleep(500 * time.Microsecond)
				}
				c.AllReduce([]float64{1}, Sum)
			}
		}(comms[r])
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap[`collective.allreduce.straggler.wait_ns{program=G}_count`] == 0 {
		t.Fatalf("straggler wait histogram empty: %v", snap)
	}
	if got := snap[`collective.allreduce.straggler.rank{program=G}`]; got != slow && !raceEnabled {
		t.Fatalf("straggler rank gauge = %v, want %d", got, slow)
	}
}

// putSendTS overwrites a stamped trailer's send timestamp (test helper).
func putSendTS(p []byte, ts int64) {
	for i := 0; i < 8; i++ {
		p[hdrLen+8+i] = byte(uint64(ts) >> (8 * i))
	}
}
