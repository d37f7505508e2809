package collective

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// runGroup creates a size-process group over an in-memory network and runs fn
// on every rank concurrently, failing the test on any returned error.
func runGroup(t *testing.T, size int, fn func(c *Comm) error) {
	t.Helper()
	runGroupOn(t, transport.NewMemNetwork(), size, fn)
}

// runGroupOn is runGroup over a network of the caller's choosing, which it
// closes.
func runGroupOn(t *testing.T, net transport.Network, size int, fn func(c *Comm) error) {
	t.Helper()
	defer net.Close()
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		ep, err := net.Register(transport.Proc("G", r))
		if err != nil {
			t.Fatal(err)
		}
		d := transport.NewDispatcher(ep)
		comms[r], err = New(d, "G", r, size)
		if err != nil {
			t.Fatal(err)
		}
		comms[r].SetTimeout(10 * time.Second)
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
}

var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// gatherFold is the reference AllReduce composed of the other collectives:
// Gather every contribution at root, fold there in rank order, Bcast the
// result.
func gatherFold(c *Comm, root int, local []float64, op Op) ([]float64, error) {
	parts, err := c.Gather(root, wire.EncodeFloat64s(local))
	if err != nil {
		return nil, err
	}
	var enc []byte
	if c.Rank() == root {
		contribs := make([][]float64, len(parts))
		for r, p := range parts {
			if contribs[r], err = wire.DecodeFloat64s(p); err != nil {
				return nil, err
			}
		}
		enc = wire.EncodeFloat64s(oracleFold(contribs, op))
	}
	b, err := c.Bcast(root, enc)
	if err != nil {
		return nil, err
	}
	return wire.DecodeFloat64s(b)
}

// rdAndRing runs AllReduce forced to recursive doubling and to the ring and
// fails unless both equal want bit for bit.
func rdAndRing(c *Comm, local []float64, op Op, want []float64) error {
	for _, a := range []Algo{RecursiveDoubling, Ring} {
		got, err := c.force(a).AllReduce(local, op)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d %s: %v, want %v", c.Rank(), a, got, want)
		}
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	ep, _ := net.Register(transport.Proc("G", 0))
	d := transport.NewDispatcher(ep)
	if _, err := New(d, "G", 0, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(d, "G", 5, 4); err == nil {
		t.Error("rank out of range accepted")
	}
	c, err := New(d, "G", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 2 || c.Size() != 4 || c.Program() != "G" {
		t.Error("accessors wrong")
	}
}

func TestBarrierAllArrive(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var entered int32
			runGroup(t, n, func(c *Comm) error {
				atomic.AddInt32(&entered, 1)
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier everyone must have entered it.
				if got := atomic.LoadInt32(&entered); got != int32(n) {
					return fmt.Errorf("left barrier with %d/%d entered", got, n)
				}
				return nil
			})
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	runGroup(t, 4, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			if err := c.Barrier(); err != nil {
				return fmt.Errorf("barrier %d: %w", i, err)
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, n := range groupSizes {
		for root := 0; root < n; root += 3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				want := []byte("broadcast-payload")
				runGroup(t, n, func(c *Comm) error {
					var in []byte
					if c.Rank() == root {
						in = want
					}
					out, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(out, want) {
						return fmt.Errorf("got %q", out)
					}
					return nil
				})
			})
		}
	}
}

func TestBcastBadRoot(t *testing.T) {
	runGroup(t, 2, func(c *Comm) error {
		if _, err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
}

// TestReduceSum: recursive doubling and the ring both sum every rank's
// vector, and agree with the Gather+Bcast composition.
func TestReduceSum(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			// rank r contributes [r, 2r]; sum over r in 0..n-1.
			wantA := float64(n * (n - 1) / 2)
			runGroup(t, n, func(c *Comm) error {
				r := float64(c.Rank())
				ref, err := gatherFold(c, 0, []float64{r, 2 * r}, Sum)
				if err != nil {
					return err
				}
				if ref[0] != wantA || ref[1] != 2*wantA {
					return fmt.Errorf("gather+bcast got %v, want [%v %v]", ref, wantA, 2*wantA)
				}
				return rdAndRing(c, []float64{r, 2 * r}, Sum, ref)
			})
		})
	}
}

// TestReduceNonzeroRoot: the Gather+Bcast composition rooted away from rank
// 0 agrees with AllReduce.
func TestReduceNonzeroRoot(t *testing.T) {
	runGroup(t, 6, func(c *Comm) error {
		res, err := gatherFold(c, 4, []float64{1}, Sum)
		if err != nil {
			return err
		}
		if res[0] != 6 {
			return fmt.Errorf("rank %d got %v", c.Rank(), res)
		}
		return rdAndRing(c, []float64{1}, Sum, res)
	})
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		want float64 // over ranks 0..3 with contribution rank+1
	}{
		{"sum", Sum, 10},
		{"prod", prod, 24},
		{"max", Max, 4},
		{"min", Min, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runGroup(t, 4, func(c *Comm) error {
				v, err := c.AllReduceScalar(float64(c.Rank()+1), tc.op)
				if err != nil {
					return err
				}
				if v != tc.want {
					return fmt.Errorf("got %v want %v", v, tc.want)
				}
				return rdAndRing(c, []float64{float64(c.Rank() + 1)}, tc.op, []float64{tc.want})
			})
		})
	}
}

func TestAllReduce(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			want := float64(n*(n-1)) / 2
			runGroup(t, n, func(c *Comm) error {
				v, err := c.AllReduceScalar(float64(c.Rank()), Sum)
				if err != nil {
					return err
				}
				if v != want {
					return fmt.Errorf("rank %d got %v want %v", c.Rank(), v, want)
				}
				return nil
			})
		})
	}
}

func TestAllReduceVector(t *testing.T) {
	runGroup(t, 7, func(c *Comm) error {
		local := []float64{float64(c.Rank()), 1}
		res, err := c.AllReduce(local, Sum)
		if err != nil {
			return err
		}
		if res[0] != 21 || res[1] != 7 {
			return fmt.Errorf("got %v", res)
		}
		// Local buffer must be untouched.
		if local[0] != float64(c.Rank()) {
			return fmt.Errorf("local modified: %v", local)
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				part := []byte(fmt.Sprintf("part-%d", c.Rank()))
				all, err := c.Gather(0, part)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					if all != nil {
						return fmt.Errorf("non-root got %v", all)
					}
					return nil
				}
				for r := 0; r < n; r++ {
					if string(all[r]) != fmt.Sprintf("part-%d", r) {
						return fmt.Errorf("slot %d = %q", r, all[r])
					}
				}
				return nil
			})
		})
	}
}

// TestScatter: Gather rooted at the last rank delivers every rank's part
// there, in rank order, and nil elsewhere.
func TestScatter(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			root := n - 1
			runGroup(t, n, func(c *Comm) error {
				all, err := c.Gather(root, []byte(fmt.Sprintf("piece-%d", c.Rank())))
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if all != nil {
						return fmt.Errorf("non-root got %q", all)
					}
					return nil
				}
				for r := 0; r < n; r++ {
					if string(all[r]) != fmt.Sprintf("piece-%d", r) {
						return fmt.Errorf("slot %d = %q", r, all[r])
					}
				}
				return nil
			})
		})
	}
}

// TestScatterWrongPartCount: Gather and AllGather return exactly one part
// per rank, and a root outside the group is rejected on every rank.
func TestScatterWrongPartCount(t *testing.T) {
	runGroup(t, 3, func(c *Comm) error {
		if _, err := c.Gather(3, nil); err == nil {
			return fmt.Errorf("gather root 3 of 3 accepted")
		}
		if g, err := c.Gather(1, nil); err != nil || (c.Rank() == 1) != (len(g) == 3) {
			return fmt.Errorf("gather: %d parts, %v", len(g), err)
		}
		if ag, err := c.AllGather(nil); err != nil || len(ag) != 3 {
			return fmt.Errorf("allgather: %d parts, %v", len(ag), err)
		}
		return nil
	})
}

// TestRejectedCallTakesOneSeq pins the rule of Comm.run: a call that rejects
// its arguments has already taken its sequence number — exactly one — so a
// rank that rejects stays aligned with peers that did not. Every rejection
// precedes communication, so rank 0 of a group of two can be driven alone.
func TestRejectedCallTakesOneSeq(t *testing.T) {
	_, comms, _ := ftGroup(t, 2, time.Second)
	c := comms[0]
	cases := []struct {
		name string
		call func() error
	}{
		{"bcast/bad-root", func() error { _, err := c.Bcast(-1, nil); return err }},
		{"bcast/bad-root-high", func() error { _, err := c.Bcast(2, nil); return err }},
		{"gather/bad-root", func() error { _, err := c.Gather(2, nil); return err }},
		{"gather/bad-root-low", func() error { _, err := c.Gather(-1, nil); return err }},
	}
	for _, tc := range cases {
		before := c.opSeq
		if err := tc.call(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := c.opSeq - before; got != 1 {
			t.Errorf("%s: consumed %d sequence numbers, want 1", tc.name, got)
		}
	}
}

func TestAllGather(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				all, err := c.AllGather([]byte{byte(c.Rank())})
				if err != nil {
					return err
				}
				for r := 0; r < n; r++ {
					if len(all[r]) != 1 || all[r][0] != byte(r) {
						return fmt.Errorf("rank %d slot %d = %v", c.Rank(), r, all[r])
					}
				}
				return nil
			})
		})
	}
}

// TestAllToAll: every rank's AllGather result holds each rank's own
// multi-byte part, under both the linear exchange and the ring.
func TestAllToAll(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				for _, a := range []Algo{Linear, Ring} {
					got, err := c.force(a).AllGather([]byte(fmt.Sprintf("%d->all", c.Rank())))
					if err != nil {
						return err
					}
					for r := 0; r < n; r++ {
						if want := fmt.Sprintf("%d->all", r); string(got[r]) != want {
							return fmt.Errorf("%s from %d: %q want %q", a, r, got[r], want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestPointToPoint(t *testing.T) {
	runGroup(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, "halo", wire.EncodeFloat64s([]float64{3.5, 4.5}))
		}
		b, err := c.Recv(0, "halo")
		if err != nil {
			return err
		}
		vals, err := wire.DecodeFloat64s(b)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(vals, []float64{3.5, 4.5}) {
			return fmt.Errorf("got %v", vals)
		}
		return nil
	})
}

func TestPointToPointOutOfOrderTags(t *testing.T) {
	runGroup(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, "a", []byte("A"))
			c.Send(1, "b", []byte("B"))
			return nil
		}
		// Receive in the opposite order; "a" must be buffered.
		b, err := c.Recv(0, "b")
		if err != nil || string(b) != "B" {
			return fmt.Errorf("b: %v %q", err, b)
		}
		a, err := c.Recv(0, "a")
		if err != nil || string(a) != "A" {
			return fmt.Errorf("a: %v %q", err, a)
		}
		return nil
	})
}

// TestMixedSequence runs a realistic mixed sequence of collectives to shake
// out tag collisions between operations.
func TestMixedSequence(t *testing.T) {
	runGroup(t, 8, func(c *Comm) error {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			sum, err := c.AllReduceScalar(1, Sum)
			if err != nil {
				return err
			}
			if sum != 8 {
				return fmt.Errorf("iter %d: sum %v", i, sum)
			}
			out, err := c.Bcast(i%8, []byte{byte(i)})
			if err != nil {
				return err
			}
			if out[0] != byte(i) {
				return fmt.Errorf("iter %d: bcast %v", i, out)
			}
			all, err := c.AllGather([]byte{byte(c.Rank())})
			if err != nil {
				return err
			}
			if len(all) != 8 {
				return fmt.Errorf("allgather size %d", len(all))
			}
		}
		return nil
	})
}

// TestSkewedEntry verifies collectives tolerate ranks entering at very
// different times (the load-imbalance scenario central to the paper).
func TestSkewedEntry(t *testing.T) {
	runGroup(t, 4, func(c *Comm) error {
		time.Sleep(time.Duration(c.Rank()) * 20 * time.Millisecond)
		v, err := c.AllReduceScalar(float64(c.Rank()), Max)
		if err != nil {
			return err
		}
		if v != 3 {
			return fmt.Errorf("got %v", v)
		}
		return nil
	})
}

func TestReduceScalarOnTCP(t *testing.T) {
	r, err := transport.StartTCPRouter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	net := transport.NewTCPNetwork(r.ListenAddr())
	defer net.Close()
	const n = 4
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		ep, err := net.Register(transport.Proc("T", i))
		if err != nil {
			t.Fatal(err)
		}
		comms[i], err = New(transport.NewDispatcher(ep), "T", i, n)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = comms[i].AllReduceScalar(float64(i+1), Sum)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		if vals[i] != 10 {
			t.Errorf("rank %d got %v", i, vals[i])
		}
	}
}

// TestAllReduceEquivalence checks the recursive-doubling AllReduce against
// a Gather-to-root + Bcast composition, across the
// size matrix (power-of-two sizes exercise the plain doubling sweep, the
// others the remainder pre/post fold — 3 and 5 maximize the remainder, 6
// and 12 exercise even remainders, 7 is pow2-1) and across ops.
// Contributions are exact small integers, so every combining order yields
// bit-identical sums.
func TestAllReduceEquivalence(t *testing.T) {
	sizes := append([]int(nil), groupSizes...)
	sizes = append(sizes, 6, 12)
	for _, n := range sizes {
		n := n
		for _, tc := range []struct {
			name string
			op   Op
		}{{"sum", Sum}, {"max", Max}, {"min", Min}} {
			tc := tc
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				runGroup(t, n, func(c *Comm) error {
					local := []float64{
						float64(c.Rank() + 1),
						float64((c.Rank()*7)%5 - 2),
						float64(-c.Rank()),
					}
					got, err := c.AllReduce(local, tc.op)
					if err != nil {
						return err
					}
					// Reference: the gather+bcast composition on the same
					// contributions.
					ref, err := gatherFold(c, 0, local, tc.op)
					if err != nil {
						return err
					}
					for i := range got {
						if got[i] != ref[i] {
							return fmt.Errorf("rank %d elem %d: AllReduce %v, Gather+Bcast %v", c.Rank(), i, got, ref)
						}
					}
					return nil
				})
			})
		}
	}
}
