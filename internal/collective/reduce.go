package collective

import (
	"fmt"

	"repro/internal/wire"
)

func errBadRoot(op string, root, size int) error {
	return fmt.Errorf("collective: %s root %d outside group of %d", op, root, size)
}

// AllReduce folds every rank's local slice and returns the result on all
// ranks. Small vectors use recursive doubling (latency-optimal, log2(n)
// rounds, each moving the full vector); vectors past the dispatch table's
// AllReduceRingBytes threshold use the ring ReduceScatter + ring AllGather
// (Rabenseifner) algorithm, which moves only ~2·len elements per rank
// regardless of group size. The local slice is not modified and the result
// never aliases it.
func (c *Comm) AllReduce(local []float64, op Op) ([]float64, error) {
	acc := make([]float64, len(local))
	copy(acc, local)
	if err := c.AllReduceInPlace(acc, op); err != nil {
		return nil, err
	}
	return acc, nil
}

// AllReduceInPlace is AllReduce folding the result into vals, avoiding the
// result allocation: on a transport whose received payloads are exclusive
// the steady-state cost is zero allocations per operation.
func (c *Comm) AllReduceInPlace(vals []float64, op Op) error {
	algo := c.table.allReduceAlgo(c.size, wire.Float64sSize(len(vals)))
	return c.run(opAllReduce, &algo, func(seq uint32) error {
		if algo == Ring {
			return c.ringAllReduce(seq, vals, op)
		}
		return c.rdAllReduce(seq, vals, op)
	})
}

// rdAllReduce runs recursive doubling on acc in place. Power-of-two groups
// run the classic log2(n) sweep of pairwise exchanges directly. Other sizes
// fold the remainder in first: with pow2 the largest power of two <= n and
// rem = n - pow2, the first 2*rem ranks pair up — each odd rank hands its
// contribution to its even neighbor and sits out — leaving exactly pow2
// active ranks to run the doubling sweep; a final pairwise send returns the
// full result to the ranks that sat out. That costs the remainder pairs two
// extra latencies but keeps every other rank on the single-sweep critical
// path, unlike a Reduce+Bcast composition (two full tree traversals for
// everyone).
//
// Rounds: 0 = remainder pre-fold, 1+k = sweep over bit k, 63 = post-fold.
func (c *Comm) rdAllReduce(seq uint32, acc []float64, op Op) error {
	const postRound = 63

	pow2 := 1
	for pow2<<1 <= c.size {
		pow2 <<= 1
	}
	rem := c.size - pow2
	// toGroup maps a doubling-group rank back to its group rank: the even ranks
	// of the paired prefix come first, then the unpaired suffix.
	toGroup := func(nr int) int {
		if nr < rem {
			return 2 * nr
		}
		return nr + rem
	}

	// Pre-fold: odd ranks of the paired prefix hand off and wait.
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 1:
		if err := c.sendFloats(c.rank-1, opAllReduce, c.hdr(seq, 0, opAllReduce), acc); err != nil {
			return err
		}
	case c.rank < 2*rem:
		vals, err := c.recvScratch(c.rank+1, opAllReduce, c.hdr(seq, 0, opAllReduce), len(acc))
		if err != nil {
			return err
		}
		op(acc, vals)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}

	// Doubling sweep over the pow2 active ranks: in round 1+k every active
	// rank swaps its partial accumulation with the peer across bit k and
	// folds it in. Sends are queued by the transport, so both partners may
	// send before receiving without deadlock.
	if newRank >= 0 {
		round := 1
		for mask := 1; mask < pow2; mask <<= 1 {
			peer := toGroup(newRank ^ mask)
			h := c.hdr(seq, round, opAllReduce)
			if err := c.sendFloats(peer, opAllReduce, h, acc); err != nil {
				return err
			}
			vals, err := c.recvScratch(peer, opAllReduce, h, len(acc))
			if err != nil {
				return err
			}
			op(acc, vals)
			round++
		}
	}

	// Post-fold: even ranks of the paired prefix return the full result to
	// the neighbor that sat the sweep out.
	if c.rank < 2*rem {
		h := c.hdr(seq, postRound, opAllReduce)
		if c.rank%2 == 0 {
			if err := c.sendFloats(c.rank+1, opAllReduce, h, acc); err != nil {
				return err
			}
		} else {
			if err := c.recvInto(c.rank-1, opAllReduce, h, acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// AllReduceScalar reduces a single float64 and returns it everywhere.
func (c *Comm) AllReduceScalar(v float64, op Op) (float64, error) {
	c.one[0] = v
	if err := c.AllReduceInPlace(c.one[:], op); err != nil {
		return 0, err
	}
	return c.one[0], nil
}
