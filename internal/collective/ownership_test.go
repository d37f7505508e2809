package collective

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// kib fills a 1 KiB part whose every byte names (op, round, from, to).
func kib(op, round, from, to int) []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(i + 7*op + 31*round + 3*from + 5*to)
	}
	return b
}

// TestByteResultsOwnTheirBytes pins the byte collectives' half of the
// ownership rule on recycling Comms: after a 1 MiB ring AllReduce has filled
// the pools with 256 KiB frames, every part AllGather, Gather and Bcast
// return is an allocation of its own size (no 1 KiB window pinning a wire
// buffer), and no later operation — which redraws and overwrites every frame
// the results arrived in — changes a result the caller holds, nor does
// scribbling over a result change what a later operation delivers. Group
// sizes 3, 4 and 5 take the linear and the ring AllGather.
func TestByteResultsOwnTheirBytes(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				if c.pool == nil {
					return fmt.Errorf("a Comm over MemNetwork does not recycle")
				}
				me := c.Rank()
				big := make([]float64, 1<<17)
				var held, want [][]byte
				for round := 0; round < 3; round++ {
					for i := range big {
						big[i] = float64(i % 7)
					}
					if err := c.AllReduceInPlace(big, Sum); err != nil {
						return err
					}
					if big[6] != float64(6*n) {
						return fmt.Errorf("round %d: 1 MiB allreduce[6] = %v", round, big[6])
					}
					root := round % n
					ag, err := c.AllGather(kib(0, round, me, 0))
					if err != nil {
						return err
					}
					g, err := c.Gather(root, kib(1, round, me, 0))
					if err != nil {
						return err
					}
					var in []byte
					if me == root {
						in = kib(3, round, root, 0)
					}
					bc, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if me == root {
						bc = append([]byte(nil), bc...) // the root's result is its input
					}
					got := append(append([][]byte{bc}, ag...), g...)
					exp := [][]byte{kib(3, round, root, 0)}
					for r := 0; r < n; r++ {
						exp = append(exp, kib(0, round, r, 0))
					}
					for r := 0; r < n && me == root; r++ {
						exp = append(exp, kib(1, round, r, 0))
					}
					if len(got) != len(exp) {
						return fmt.Errorf("round %d: %d result parts, want %d", round, len(got), len(exp))
					}
					for i, p := range got {
						if !bytes.Equal(p, exp[i]) {
							return fmt.Errorf("round %d: result part %d is not what was sent", round, i)
						}
						if cap(p) > len(p)+64 {
							return fmt.Errorf("round %d: result part %d has len %d cap %d", round, i, len(p), cap(p))
						}
					}
					// Scribble over every other result; keep the rest to
					// compare once later rounds have reused the frames.
					for i, p := range got {
						if i%2 == 0 {
							for j := range p {
								p[j] = 0xA5
							}
						} else {
							held, want = append(held, p), append(want, exp[i])
						}
					}
				}
				for i, p := range held {
					if !bytes.Equal(p, want[i]) {
						return fmt.Errorf("held result part %d changed under later operations", i)
					}
				}
				return nil
			})
		})
	}
}

// TestRecyclePoisons pins the use-after-recycle detector: a recycled frame
// goes to the Comm's pool and comes back for a request of its size, and
// under the race detector — and only there — it is overwritten to its full
// capacity first, so anything still aliasing it reads poison. A Comm over a
// transport whose payloads are not exclusive has no pool and recycles
// nothing.
func TestRecyclePoisons(t *testing.T) {
	runGroup(t, 1, func(c *Comm) error {
		b := bytes.Repeat([]byte{1}, 100)[:60]
		c.pool.Put(b)
		if held := c.pool.Stats().Held; held != cap(b) {
			return fmt.Errorf("pool holds %d bytes after recycling cap %d", held, cap(b))
		}
		for i, v := range b[:cap(b)] {
			if (v != 1) != raceEnabled {
				return fmt.Errorf("recycled byte %d = %#x (race build: %v)", i, v, raceEnabled)
			}
		}
		if got := c.pool.Get(80); &got[0] != &b[0] || len(got) != 80 || c.pool.Stats().Held != 0 {
			return fmt.Errorf("Get(80) did not return the recycled buffer (held %d)", c.pool.Stats().Held)
		}
		want := b[0]
		c.pool = nil
		c.pool.Put(b)
		if c.pool.Stats().Held != 0 || b[0] != want {
			return fmt.Errorf("a Comm that does not own its frames recycled one")
		}
		return nil
	})
}

// TestPoolFitAndBound pins the pool's two bounds: a request is served only
// from its own power-of-two class and only by a buffer that fits, so it
// never receives more than twice what it asked for, and the bytes parked
// never exceed 16 MiB.
func TestPoolFitAndBound(t *testing.T) {
	runGroup(t, 1, func(c *Comm) error {
		for _, n := range []int{64, 100, 127, 128, 4096} {
			c.pool.Put(make([]byte, n))
		}
		for _, tc := range []struct {
			n, wantCap int
			hit        bool
		}{
			{129, 129, false}, // class 7 holds only cap 128, too small
			{128, 128, true},
			{90, 127, true},     // class 6, newest first
			{120, 120, false},   // the 100 and the 64 left in class 6 do not fit
			{100, 100, true},    // but the 100 is still there
			{2048, 2048, false}, // the 4096 sits a class up, where a request could get 4x
			{4096, 4096, true},
		} {
			before := c.pool.Stats()
			b := c.pool.Get(tc.n)
			after := c.pool.Stats()
			if len(b) != tc.n || cap(b) != tc.wantCap || tc.hit != (after.Hits == before.Hits+1) ||
				tc.hit != (after.Held == before.Held-cap(b)) {
				return fmt.Errorf("Get(%d) = len %d cap %d with %d -> %d bytes parked, want cap %d, hit %v",
					tc.n, len(b), cap(b), before.Held, after.Held, tc.wantCap, tc.hit)
			}
		}
		if held := c.pool.Stats().Held; held != 64 {
			return fmt.Errorf("pool holds %d bytes, want the one 64-byte buffer", held)
		}
		const bound = 16 << 20
		for i := 0; i < 40; i++ {
			c.pool.Put(make([]byte, 1<<20))
		}
		held := c.pool.Stats().Held
		if held > bound || held < bound-1<<20 {
			return fmt.Errorf("pool holds %d bytes, bound %d", held, bound)
		}
		if c.pool.Put(nil); c.pool.Stats().Held != held {
			return fmt.Errorf("pool parked a nil buffer")
		}
		return nil
	})
}

// TestMixSteadyStateBytes replays the benchmark's collective_mix step on
// four default ranks — 64 B and 8 KiB AllReduce in place, 8 KiB Bcast from a
// rotating root, 1 KiB AllGather, Barrier, a 1 MiB AllReduce every 8th step
// — and asserts the process allocates no more than the results the API hands
// the caller (three Bcast copies and four AllGather results per step), plus
// a tenth: every wire byte comes out of the pools.
func TestMixSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const (
		ranks      = 4
		steps      = 64
		largeEvery = 8
	)
	type rankState struct {
		small, mid, large []float64
		src, part         []byte
		step              int
	}
	st := make([]*rankState, ranks)
	for r := range st {
		st[r] = &rankState{
			small: make([]float64, 8), mid: make([]float64, 1024), large: make([]float64, 1<<17),
			src: make([]byte, 8<<10), part: make([]byte, 1<<10),
		}
	}
	g := newAllocGroup(t, ranks, func(c *Comm) error {
		s := st[c.Rank()]
		s.step++
		if err := c.AllReduceInPlace(s.small, Max); err != nil {
			return err
		}
		if err := c.AllReduceInPlace(s.mid, Max); err != nil {
			return err
		}
		if got, err := c.Bcast(s.step%ranks, s.src); err != nil || len(got) != len(s.src) {
			return fmt.Errorf("bcast: %d bytes, %v", len(got), err)
		}
		if parts, err := c.AllGather(s.part); err != nil || len(parts) != ranks {
			return fmt.Errorf("allgather: %d parts, %v", len(parts), err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if s.step%largeEvery != 0 {
			return nil
		}
		return c.AllReduceInPlace(s.large, Max)
	})
	defer g.close()
	for i := 0; i < 2*largeEvery; i++ {
		g.round(t)
	}
	// Per step: ranks-1 Bcast results, and per rank one AllGather result of
	// ranks parts with its slice headers.
	const resultBytes = (ranks-1)*(8<<10) + ranks*(ranks*(1<<10)+ranks*24)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		g.round(t)
	}
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
	t.Logf("%.0f bytes/step allocated, %d of them results", perStep, resultBytes)
	if perStep > 1.10*resultBytes {
		t.Fatalf("collective_mix step allocates %.0f bytes, want at most the %d result bytes + 10%%",
			perStep, resultBytes)
	}
}
