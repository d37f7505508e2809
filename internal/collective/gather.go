package collective

// Byte-slice collectives. Parts may have different sizes per rank, so
// algorithm dispatch keys on group size alone (identical on every rank).
// Returned slices never alias the caller's inputs: a root's own Gather
// entry, a Scatter root's part and an AllToAll self-entry are copies, so
// mutating an input after the call cannot corrupt the result (and vice
// versa).

// sendParts sends part(r) to every other rank r under one header. The
// dispatcher's unbounded queues make the eager sends deadlock-free.
func (c *Comm) sendParts(op opID, h uint64, part func(r int) []byte) error {
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		if err := c.sendBytes(r, op, h, part(r)); err != nil {
			return err
		}
	}
	return nil
}

// recvParts receives every other rank r's payload under one header into
// out[r].
func (c *Comm) recvParts(op opID, h uint64, out [][]byte) error {
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		p, err := c.recv(r, op, h)
		if err != nil {
			return err
		}
		out[r] = p[c.hlen:]
	}
	return nil
}

// Gather collects each rank's part at root with the linear root loop. At
// root the returned slice has one entry per rank, in rank order; other ranks
// get nil.
func (c *Comm) Gather(root int, part []byte) ([][]byte, error) {
	algo := Linear
	var out [][]byte
	err := c.run(opGather, &algo, func(seq uint32) error {
		if root < 0 || root >= c.size {
			return errBadRoot("Gather", root, c.size)
		}
		h := c.hdr(seq, 0, opGather)
		if c.rank != root {
			return c.sendBytes(root, opGather, h, part)
		}
		out = make([][]byte, c.size)
		out[root] = copyBytes(part)
		return c.recvParts(opGather, h, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scatter distributes parts[r] from root to rank r with the linear root loop
// and returns the local part on every rank. Only root's parts argument is
// consulted.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	algo := Linear
	var out []byte
	err := c.run(opScatter, &algo, func(seq uint32) error {
		if root < 0 || root >= c.size {
			return errBadRoot("Scatter", root, c.size)
		}
		h := c.hdr(seq, 0, opScatter)
		if c.rank != root {
			p, err := c.recv(root, opScatter, h)
			if err != nil {
				return err
			}
			out = p[c.hlen:]
			return nil
		}
		if len(parts) != c.size {
			return errPartCount("Scatter", len(parts), c.size)
		}
		out = copyBytes(parts[root])
		return c.sendParts(opScatter, h, func(r int) []byte { return parts[r] })
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllGather collects each rank's part on every rank. Small groups use the
// linear exchange; larger ones the ring (n-1 steps, each step passing the
// next block to the right neighbor), which keeps per-rank traffic at the sum
// of all parts regardless of group size and never funnels through a root.
func (c *Comm) AllGather(part []byte) ([][]byte, error) {
	algo := c.table.allGatherAlgo(c.size)
	var out [][]byte
	err := c.run(opAllGather, &algo, func(seq uint32) error {
		out = make([][]byte, c.size)
		out[c.rank] = copyBytes(part)
		if algo == Ring {
			return c.allGatherRing(seq, out)
		}
		h := c.hdr(seq, 0, opAllGather)
		if err := c.sendParts(opAllGather, h, func(int) []byte { return part }); err != nil {
			return err
		}
		return c.recvParts(opAllGather, h, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Comm) allGatherRing(seq uint32, out [][]byte) error {
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	// In step s we forward the block that originated at rank-s (mod n).
	for s := 0; s < c.size-1; s++ {
		h := c.hdr(seq, s, opAllGather)
		sendOrigin := (c.rank - s + c.size) % c.size
		if err := c.sendBytes(right, opAllGather, h, out[sendOrigin]); err != nil {
			return err
		}
		p, err := c.recv(left, opAllGather, h)
		if err != nil {
			return err
		}
		recvOrigin := (c.rank - s - 1 + c.size) % c.size
		out[recvOrigin] = p[c.hlen:]
	}
	return nil
}

// AllToAll delivers parts[r] to rank r from every rank; the returned slice
// holds, per source rank, the block that source addressed to this rank.
// Small groups use the linear eager exchange; larger ones pairwise exchange
// (step s trades with rank±s), which spreads the traffic over disjoint pairs
// per step instead of all ranks bursting at once.
func (c *Comm) AllToAll(parts [][]byte) ([][]byte, error) {
	algo := c.table.allToAllAlgo(c.size)
	var out [][]byte
	err := c.run(opAllToAll, &algo, func(seq uint32) error {
		if len(parts) != c.size {
			return errPartCount("AllToAll", len(parts), c.size)
		}
		out = make([][]byte, c.size)
		out[c.rank] = copyBytes(parts[c.rank])
		if algo == Pairwise {
			return c.allToAllPairwise(seq, parts, out)
		}
		h := c.hdr(seq, 0, opAllToAll)
		if err := c.sendParts(opAllToAll, h, func(r int) []byte { return parts[r] }); err != nil {
			return err
		}
		return c.recvParts(opAllToAll, h, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Comm) allToAllPairwise(seq uint32, parts, out [][]byte) error {
	for s := 1; s < c.size; s++ {
		h := c.hdr(seq, s, opAllToAll)
		to := (c.rank + s) % c.size
		from := (c.rank - s + c.size) % c.size
		if err := c.sendBytes(to, opAllToAll, h, parts[to]); err != nil {
			return err
		}
		p, err := c.recv(from, opAllToAll, h)
		if err != nil {
			return err
		}
		out[from] = p[c.hlen:]
	}
	return nil
}

// copyBytes clones b, preserving nil-ness as an empty (non-nil) slice only
// when b has bytes; nil and empty both come back empty.
func copyBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func errPartCount(op string, got, want int) error {
	return errf("collective: %s needs %d parts, got %d", op, want, got)
}
