package collective

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

// runGroupQuick is runGroup without a *testing.T, for quick.Check bodies:
// it clears *ok on any rank error.
func runGroupQuick(n int, fn func(c *Comm) error, ok *bool) {
	net := transport.NewMemNetwork()
	defer net.Close()
	comms := make([]*Comm, n)
	for r := 0; r < n; r++ {
		ep, err := net.Register(transport.Proc("Q", r))
		if err != nil {
			*ok = false
			return
		}
		comms[r], err = New(transport.NewDispatcher(ep), "Q", r, n)
		if err != nil {
			*ok = false
			return
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			*ok = false
		}
	}
}

// oracleFold applies op sequentially over per-rank contributions.
func oracleFold(contribs [][]float64, op Op) []float64 {
	acc := make([]float64, len(contribs[0]))
	copy(acc, contribs[0])
	for _, c := range contribs[1:] {
		op(acc, c)
	}
	return acc
}

// TestQuickAllReduceMatchesOracle: AllReduce equals the sequential fold for
// random group sizes, vector lengths and values, for every operator.
func TestQuickAllReduceMatchesOracle(t *testing.T) {
	ops := map[string]Op{"sum": Sum, "max": Max, "min": Min}
	f := func(seed int64, nRaw, lenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		vecLen := int(lenRaw%5) + 1
		contribs := make([][]float64, n)
		for r := range contribs {
			contribs[r] = make([]float64, vecLen)
			for i := range contribs[r] {
				contribs[r][i] = math.Round(rng.Float64()*100) / 4 // exact-in-float values
			}
		}
		for name, op := range ops {
			want := oracleFold(contribs, op)
			ok := true
			runGroupQuick(n, func(c *Comm) error {
				got, err := c.AllReduce(contribs[c.Rank()], op)
				if err != nil {
					return err
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("%s rank %d: %v want %v", name, c.Rank(), got, want)
					}
				}
				return nil
			}, &ok)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickScanMatchesOracle: the ring AllReduce equals the sequential fold
// for random group sizes and lengths, including lengths below the group
// size (empty blocks).
func TestQuickScanMatchesOracle(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%7) + 1
		vecLen := rng.Intn(2 * n)
		contribs := make([][]float64, n)
		for r := range contribs {
			contribs[r] = make([]float64, vecLen)
			for i := range contribs[r] {
				contribs[r][i] = math.Round(rng.Float64() * 32)
			}
		}
		want := oracleFold(contribs, Sum)
		ok := true
		runGroupQuick(n, func(c *Comm) error {
			got, err := c.force(Ring).AllReduce(contribs[c.Rank()], Sum)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("rank %d: %v want %v", c.Rank(), got, want)
				}
			}
			return nil
		}, &ok)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickGatherScatterRoundTrip: Gather at a random root and AllGather
// deliver the same parts, byte for byte, for random payloads.
func TestQuickGatherScatterRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, rootRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		root := int(rootRaw) % n
		payloads := make([][]byte, n)
		for r := range payloads {
			payloads[r] = make([]byte, rng.Intn(32))
			rng.Read(payloads[r])
		}
		ok := true
		runGroupQuick(n, func(c *Comm) error {
			all, err := c.Gather(root, payloads[c.Rank()])
			if err != nil {
				return err
			}
			every, err := c.AllGather(payloads[c.Rank()])
			if err != nil {
				return err
			}
			for r := range every {
				if string(every[r]) != string(payloads[r]) || (c.Rank() == root && string(all[r]) != string(payloads[r])) {
					return fmt.Errorf("rank %d part %d mismatch", c.Rank(), r)
				}
			}
			return nil
		}, &ok)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
