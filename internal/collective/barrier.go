package collective

// Barrier blocks until every rank in the group has entered the barrier. It
// uses the dissemination algorithm: ceil(log2(n)) rounds, in round k each
// rank signals (rank + 2^k) mod n and waits for (rank - 2^k) mod n, so no
// rank can leave before all have arrived.
func (c *Comm) Barrier() error {
	algo := Dissemination
	return c.run(opBarrier, &algo, func(seq uint32) error {
		round := 0
		for dist := 1; dist < c.size; dist <<= 1 {
			h := c.hdr(seq, round, opBarrier)
			to := (c.rank + dist) % c.size
			from := (c.rank - dist%c.size + c.size) % c.size
			if err := c.sendBytes(to, opBarrier, h, nil); err != nil {
				return err
			}
			p, err := c.recv(from, opBarrier, h)
			if err != nil {
				return err
			}
			c.pool.Put(p)
			round++
		}
		return nil
	})
}
