package harness

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// exactContrib fills a deterministic per-rank vector of dyadic rationals
// (multiples of 1/8 with small magnitude); their sums are exact in float64
// under any combining order, so different reduction schedules must produce
// bit-identical results.
func exactContrib(rank, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((rank*131+i*17)%257-128) / 8.0
	}
	return v
}

// ftGroup is an in-memory collective group that keeps the per-rank
// dispatchers so a test can kill a rank by closing its endpoint.
type ftGroup struct {
	net   transport.Network
	comms []*collective.Comm
	disps []*transport.Dispatcher
}

// newFTGroupNet builds the group over an arbitrary substrate (here a
// delay-injecting fault network). Closing the group closes net.
func newFTGroupNet(net transport.Network, size int, timeout time.Duration) (*ftGroup, error) {
	g := &ftGroup{
		net:   net,
		comms: make([]*collective.Comm, size),
		disps: make([]*transport.Dispatcher, size),
	}
	for r := 0; r < size; r++ {
		ep, err := g.net.Register(transport.Proc("ft", r))
		if err != nil {
			g.net.Close()
			return nil, err
		}
		g.disps[r] = transport.NewDispatcher(ep)
		c, err := collective.New(g.disps[r], "ft", r, size)
		if err != nil {
			g.net.Close()
			return nil, err
		}
		c.SetTimeout(timeout)
		g.comms[r] = c
	}
	return g, nil
}

func (g *ftGroup) close() { g.net.Close() }

// run executes fn once per rank concurrently and returns the first error.
func (g *ftGroup) run(fn func(c *collective.Comm) error) error {
	errs := make(chan error, len(g.comms))
	for _, c := range g.comms {
		go func(c *collective.Comm) { errs <- fn(c) }(c)
	}
	var first error
	for range g.comms {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// isFault reports whether err is one of the typed faults a collective may
// return once a rank is dead (per-rank failure, revocation, or — for a rank
// that times out before any revoke reaches it — a bare deadline).
func isFault(err error) bool {
	var rf *collective.RankFailedError
	return errors.As(err, &rf) || errors.Is(err, collective.ErrRevoked) || errors.Is(err, transport.ErrTimeout)
}

// sumContrib is the exact element-wise sum of exactContrib over the given
// ranks — the unique correct AllReduce(Sum) answer for that group.
func sumContrib(ranks []int, n int) []float64 {
	sum := make([]float64, n)
	for _, r := range ranks {
		for i, v := range exactContrib(r, n) {
			sum[i] += v
		}
	}
	return sum
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosKillRank is the kill-a-rank entry of the chaos matrix: a
// collective group over a delay-injecting fault network loses one rank mid
// collective. The fault layer swallows send errors (deliveries are
// asynchronous), so the survivors get no hard unreachable-address evidence at
// all — detection and agreement must work purely by receive deadlines and
// non-participation. Every seed must recover: typed errors only (no hangs),
// identical agreed sets, and exact survivor-subset results on the shrunk
// group, with stale delayed frames from before the crash dropped by the epoch
// check rather than corrupting the successor.
func TestChaosKillRank(t *testing.T) {
	const (
		ranks  = 5
		dead   = 2
		vecLen = 128
		// The detector is timeout-based, so under partial synchrony a live
		// rank starved by the scheduler can be agreed out (ErrExcluded).
		// The deadline must dwarf any plausible stall of a loaded CI
		// machine running the full suite alongside this test.
		timeout = 2500 * time.Millisecond
	)
	full := identityRanksHarness(ranks)
	survivors := make([]int, 0, ranks-1)
	for r := 0; r < ranks; r++ {
		if r != dead {
			survivors = append(survivors, r)
		}
	}
	fullSum := sumContrib(full, vecLen)
	survSum := sumContrib(survivors, vecLen)

	for _, seed := range []int64{1, 2, 3, 5, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			faulty := transport.NewFaultNetwork(transport.NewMemNetwork(), transport.FaultConfig{
				Seed:      seed,
				DelayProb: 0.25,
				MaxDelay:  2 * time.Millisecond,
			})
			g, err := newFTGroupNet(faulty, ranks, timeout)
			if err != nil {
				t.Fatal(err)
			}
			ring := collective.DefaultTable()
			ring.AllReduceRingBytes = 0 // every AllReduce takes the ring
			for _, c := range g.comms {
				c.SetTable(ring)
			}
			defer g.close()
			defer func() {
				for _, d := range g.disps {
					d.Close() // stop the fault pumps before the leak check
				}
			}()

			agreed := make([][]int, ranks)
			start := time.Now()
			err = g.run(func(c *collective.Comm) error {
				r := c.Rank()
				for k := 0; k < 2; k++ {
					got, err := c.AllReduce(exactContrib(r, vecLen), collective.Sum)
					if err != nil {
						return fmt.Errorf("rank %d healthy round %d: %w", r, k, err)
					}
					if !equalVec(got, fullSum) {
						return fmt.Errorf("rank %d healthy round %d: wrong sum", r, k)
					}
				}
				if r == dead {
					// Crash strictly between collectives: the fault pump may
					// still hold this rank's final-round frames (delayed up to
					// MaxDelay after Send), and closing the endpoint destroys
					// them. Without the drain the "crash" would retroactively
					// reach into the healthy round the survivors are still
					// finishing.
					time.Sleep(20 * time.Millisecond)
					return g.disps[r].Close()
				}
				if _, err := c.AllReduce(exactContrib(r, vecLen), collective.Sum); err == nil {
					return fmt.Errorf("rank %d: collective succeeded with rank %d dead", r, dead)
				} else if !isFault(err) {
					return fmt.Errorf("rank %d: untyped failure %w", r, err)
				}
				c.Revoke()
				failed, err := c.AgreeFailures()
				if err != nil {
					return fmt.Errorf("rank %d agree: %w", r, err)
				}
				agreed[r] = failed
				nc, err := c.Shrink(failed)
				if err != nil {
					return fmt.Errorf("rank %d shrink: %w", r, err)
				}
				got, err := nc.AllReduce(exactContrib(r, vecLen), collective.Sum)
				if err != nil {
					return fmt.Errorf("rank %d shrunk allreduce: %w", r, err)
				}
				if !equalVec(got, survSum) {
					return fmt.Errorf("rank %d shrunk allreduce: wrong survivor-subset sum", r)
				}
				return nc.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			// No survivor may burn more than a few deadlines end to end.
			if el := time.Since(start); el > 6*timeout {
				t.Fatalf("recovery took %v, want well under %v", el, 6*timeout)
			}
			for _, r := range survivors {
				if fmt.Sprint(agreed[r]) != fmt.Sprint([]int{dead}) {
					t.Fatalf("rank %d agreed %v, want [%d]", r, agreed[r], dead)
				}
			}
		})
	}
}

// identityRanksHarness is 0..n-1 (the pre-failure base ranks).
func identityRanksHarness(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
