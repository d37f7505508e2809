package collective

// The ring (Rabenseifner) AllReduce: a ring ReduceScatter followed by a ring
// AllGather. The vector is split into size blocks; after size-1
// reduce-scatter steps rank r owns the fully reduced block r, and size-1
// allgather steps rotate every reduced block to every rank. Each rank sends
// and receives ~2·(size-1)/size·len elements total — bandwidth-optimal and
// independent of group size, versus log2(size)·len for recursive doubling —
// at the price of 2(size-1) latencies, which is why the dispatch table only
// routes large vectors here.
//
// Each block's reduction is a single chain (rank b+1 → b+2 → ... → b), so
// every rank observes the identical fold order and the results are bitwise
// identical on all ranks.

// blockRange returns the [lo, hi) element range of block b when an n-element
// vector is split across size blocks (blocks differ by at most one element;
// empty blocks are fine when n < size).
func blockRange(n, size, b int) (int, int) {
	return b * n / size, (b + 1) * n / size
}

func mod(a, n int) int { return ((a % n) + n) % n }

// ringAllReduce folds acc in place across the group. Rounds 0..size-2 are
// the reduce-scatter phase, rounds size-1..2*size-3 the allgather phase.
func (c *Comm) ringAllReduce(seq uint32, acc []float64, op Op) error {
	if err := c.ringReduceScatterPhase(seq, acc, op); err != nil {
		return err
	}
	return c.ringAllGatherPhase(seq, acc)
}

// ringReduceScatterPhase runs the reduce-scatter half: in step s rank r
// sends block (r-s-1) mod size to its right neighbor and folds its local
// contribution into the partial for block (r-s-2) mod size arriving from the
// left. After size-1 steps acc's block r holds the full reduction.
func (c *Comm) ringReduceScatterPhase(seq uint32, acc []float64, fold Op) error {
	const op = opAllReduce
	n, sz, r := len(acc), c.size, c.rank
	right, left := (r+1)%sz, (r-1+sz)%sz
	for s := 0; s < sz-1; s++ {
		h := c.hdr(seq, s, op)
		lo, hi := blockRange(n, sz, mod(r-s-1, sz))
		if err := c.sendFloats(right, op, h, acc[lo:hi]); err != nil {
			return err
		}
		rlo, rhi := blockRange(n, sz, mod(r-s-2, sz))
		vals, err := c.recvScratch(left, op, h, rhi-rlo)
		if err != nil {
			return err
		}
		fold(acc[rlo:rhi], vals)
	}
	return nil
}

// ringAllGatherPhase rotates the reduced blocks: in step s rank r forwards
// block (r-s) mod size and receives block (r-s-1) mod size into place.
func (c *Comm) ringAllGatherPhase(seq uint32, acc []float64) error {
	const op = opAllReduce
	n, sz, r := len(acc), c.size, c.rank
	right, left := (r+1)%sz, (r-1+sz)%sz
	for s := 0; s < sz-1; s++ {
		h := c.hdr(seq, sz-1+s, op)
		lo, hi := blockRange(n, sz, mod(r-s, sz))
		if err := c.sendFloats(right, op, h, acc[lo:hi]); err != nil {
			return err
		}
		rlo, rhi := blockRange(n, sz, mod(r-s-1, sz))
		if err := c.recvInto(left, op, h, acc[rlo:rhi]); err != nil {
			return err
		}
	}
	return nil
}
