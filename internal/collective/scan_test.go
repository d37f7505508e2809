package collective

import (
	"fmt"
	"testing"
)

// TestScanScalarSum: the scalar AllReduce sums every rank's value, and
// recursive doubling and the ring agree on it.
func TestScanScalarSum(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				// rank r contributes r+1; the sum is n(n+1)/2.
				got, err := c.AllReduceScalar(float64(c.Rank()+1), Sum)
				if err != nil {
					return err
				}
				want := float64(n * (n + 1) / 2)
				if got != want {
					return fmt.Errorf("rank %d: %v, want %v", c.Rank(), got, want)
				}
				return rdAndRing(c, []float64{float64(c.Rank() + 1)}, Sum, []float64{want})
			})
		})
	}
}

// TestScanVectorMax: recursive doubling and the ring take the elementwise
// maximum and leave the input untouched.
func TestScanVectorMax(t *testing.T) {
	runGroup(t, 5, func(c *Comm) error {
		// rank r contributes [r mod 3, 10-r]: the maxima are 2 and 10.
		local := []float64{float64(c.Rank() % 3), float64(10 - c.Rank())}
		if err := rdAndRing(c, local, Max, []float64{2, 10}); err != nil {
			return err
		}
		if local[0] != float64(c.Rank()%3) {
			return fmt.Errorf("input modified")
		}
		return nil
	})
}

// TestReduceScatter: after the ring's reduce-scatter phase rank r holds
// elements [2r, 2r+2) of the global sum, bit-identical to the same block of
// the recursive-doubling AllReduce.
func TestReduceScatter(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 8} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				// Every rank contributes [1, 2, ..., 2n]; the global sum is
				// [n, 2n, ..., 2n*n]; rank r gets its 2-element slice.
				local := make([]float64, 2*n)
				for i := range local {
					local[i] = float64(i + 1)
				}
				got, err := reduceScatter(c, local, Sum)
				if err != nil {
					return err
				}
				rd, err := c.force(RecursiveDoubling).AllReduce(local, Sum)
				if err != nil {
					return err
				}
				if len(got) != 2 {
					return fmt.Errorf("got %d elements", len(got))
				}
				for i, v := range got {
					want := float64(n * (2*c.Rank() + i + 1))
					if v != want || rd[2*c.Rank()+i] != want {
						return fmt.Errorf("rank %d elem %d: ring %v, rd %v, want %v", c.Rank(), i, v, rd[2*c.Rank()+i], want)
					}
				}
				return nil
			})
		})
	}
}

// TestReduceScatterBadLength: a length the group size does not divide gives
// the ring uneven blocks, and the ring still matches recursive doubling.
func TestReduceScatterBadLength(t *testing.T) {
	runGroup(t, 3, func(c *Comm) error {
		local := []float64{1, 2, 3, float64(c.Rank())}
		return rdAndRing(c, local, Sum, []float64{3, 6, 9, 3})
	})
}

// TestScanThenOtherCollectives: ring and recursive-doubling AllReduces
// interleaved with barriers must not cross wires.
func TestScanThenOtherCollectives(t *testing.T) {
	runGroup(t, 4, func(c *Comm) error {
		for i := 0; i < 5; i++ {
			s, err := c.force(Ring).AllReduce([]float64{1, float64(i)}, Sum)
			if err != nil {
				return err
			}
			if s[0] != 4 || s[1] != float64(4*i) {
				return fmt.Errorf("iter %d ring %v", i, s)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			total, err := c.force(RecursiveDoubling).AllReduceScalar(1, Sum)
			if err != nil {
				return err
			}
			if total != 4 {
				return fmt.Errorf("iter %d allreduce %v", i, total)
			}
		}
		return nil
	})
}
