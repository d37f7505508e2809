package collective

// Byte-slice collectives. Parts may have different sizes per rank, so
// algorithm dispatch keys on group size alone (identical on every rank).
// A result aliases neither the caller's inputs nor a wire buffer (own), so
// mutating an input or a result after the call cannot corrupt anything.

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

// recvParts receives every other rank r's frame under one header into
// out[r] and makes out, with mine as this rank's entry, the caller's result.
func (c *Comm) recvParts(op opID, h uint64, out [][]byte, mine []byte) error {
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		p, err := c.recv(r, op, h)
		if err != nil {
			return err
		}
		out[r] = p
	}
	c.own(out, mine)
	return nil
}

// own turns received frames (every entry but this rank's) into the caller's
// result in place: mine and the frames' bodies go into one allocation, each
// part capped at its length, and the frames are recycled.
func (c *Comm) own(frames [][]byte, mine []byte) {
	frames[c.rank] = mine
	total := hdrLen // mine has no header
	for _, p := range frames {
		total += len(p) - hdrLen
	}
	all := make([]byte, 0, total)
	for r, p := range frames {
		off := len(all)
		if r == c.rank {
			all = append(all, p...)
		} else {
			all = append(all, p[hdrLen:]...)
			c.pool.Put(p)
		}
		frames[r] = all[off:len(all):len(all)]
	}
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
		return c.recvParts(opGather, h, out, part)
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
			out = copyBytes(p[hdrLen:])
			c.pool.Put(p)
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
		if algo == Ring {
			return c.allGatherRing(seq, part, out)
		}
		h := c.hdr(seq, 0, opAllGather)
		if err := c.sendParts(opAllGather, h, func(int) []byte { return part }); err != nil {
			return err
		}
		return c.recvParts(opAllGather, h, out, part)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Comm) allGatherRing(seq uint32, part []byte, out [][]byte) error {
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	// In step s we forward the block that originated at rank-s (mod n): our
	// own part first, then the body of the frame the previous step received.
	block := part
	for s := 0; s < c.size-1; s++ {
		h := c.hdr(seq, s, opAllGather)
		if err := c.sendBytes(right, opAllGather, h, block); err != nil {
			return err
		}
		p, err := c.recv(left, opAllGather, h)
		if err != nil {
			return err
		}
		out[(c.rank-s-1+c.size)%c.size] = p
		block = p[hdrLen:]
	}
	c.own(out, part)
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
		if algo == Pairwise {
			return c.allToAllPairwise(seq, parts, out)
		}
		h := c.hdr(seq, 0, opAllToAll)
		if err := c.sendParts(opAllToAll, h, func(r int) []byte { return parts[r] }); err != nil {
			return err
		}
		return c.recvParts(opAllToAll, h, out, parts[c.rank])
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
		out[from] = p
	}
	c.own(out, parts[c.rank])
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
