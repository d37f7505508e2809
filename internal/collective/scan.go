package collective

import "repro/internal/wire"

// Scan computes the inclusive prefix reduction: rank r receives
// op(local_0, ..., local_r). It uses the recursive-distance algorithm
// (ceil(log2 n) rounds): in round k each rank sends its running value to
// rank+2^k and folds the value received from rank-2^k. The result never
// aliases local.
func (c *Comm) Scan(local []float64, op Op) ([]float64, error) {
	algo := RecursiveDoubling
	var acc []float64
	err := c.run(opScan, &algo, func(seq uint32) error {
		acc = make([]float64, len(local))
		copy(acc, local)
		round := 0
		for dist := 1; dist < c.size; dist <<= 1 {
			h := c.hdr(seq, round, opScan)
			// Send first, then receive: the dispatcher's unbounded queues make
			// the eager send safe.
			if peer := c.rank + dist; peer < c.size {
				if err := c.sendFloats(peer, opScan, h, acc); err != nil {
					return err
				}
			}
			if peer := c.rank - dist; peer >= 0 {
				vals, err := c.recvScratch(peer, opScan, h, len(acc))
				if err != nil {
					return err
				}
				op(acc, vals)
			}
			round++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// ScanScalar is Scan for a single value.
func (c *Comm) ScanScalar(v float64, op Op) (float64, error) {
	res, err := c.Scan([]float64{v}, op)
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// ReduceScatter reduces every rank's length-n*size slice elementwise and
// scatters the result: rank r receives elements [r*n, (r+1)*n) of the global
// reduction, where n = len(local)/size (len(local) must divide evenly).
// Small inputs run the Reduce+Scatter composition (kept as the reference);
// large ones the ring reduce-scatter, which moves ~len elements per rank
// instead of funneling the full vector through a root twice.
func (c *Comm) ReduceScatter(local []float64, op Op) ([]float64, error) {
	algo := c.table.reduceScatterAlgo(c.size, wire.Float64sSize(len(local)))
	var out []float64
	err := c.run(opReduceScatter, &algo, func(seq uint32) (err error) {
		if len(local)%c.size != 0 {
			return errf("collective: ReduceScatter input length %d not divisible by group size %d",
				len(local), c.size)
		}
		if algo == Ring {
			out, err = c.reduceScatterRing(seq, local, op)
		} else {
			out, err = c.reduceScatterComposed(local, op)
		}
		return err
	})
	return out, err
}

// reduceScatterRing runs the reduce-scatter half of the ring on a working
// copy and returns this rank's fully reduced block.
func (c *Comm) reduceScatterRing(seq uint32, local []float64, op Op) ([]float64, error) {
	acc := make([]float64, len(local))
	copy(acc, local)
	if err := c.ringReduceScatterPhase(seq, opReduceScatter, acc, op); err != nil {
		return nil, err
	}
	lo, hi := blockRange(len(acc), c.size, c.rank)
	out := make([]float64, hi-lo)
	copy(out, acc[lo:hi])
	return out, nil
}

// reduceScatterComposed is the Reduce-to-root + Scatter reference
// composition; the inner collectives take their own sequence numbers and
// record their own instruments.
func (c *Comm) reduceScatterComposed(local []float64, op Op) ([]float64, error) {
	n := len(local) / c.size
	full, err := c.Reduce(0, local, op)
	if err != nil {
		return nil, err
	}
	var parts [][]byte
	if c.rank == 0 {
		parts = make([][]byte, c.size)
		for r := 0; r < c.size; r++ {
			parts[r] = encodeFloats(full[r*n : (r+1)*n])
		}
	}
	b, err := c.Scatter(0, parts)
	if err != nil {
		return nil, err
	}
	return c.decodeSameLen(b, n)
}
