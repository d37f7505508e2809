package collective

import (
	"encoding/binary"
	"fmt"
)

// maxBcastSegs bounds segment counts to the header's uint16 round field.
const maxBcastSegs = 60000

// Bcast copies root's buffer to every rank using a binomial tree
// (ceil(log2 n) rounds). Payloads past the dispatch table's BcastSegBytes
// threshold are split into BcastSegSize-byte segments pipelined down the
// tree, so an interior rank forwards segment s while still receiving segment
// s+1 and the transfer overlaps across tree levels instead of serializing a
// full-payload copy per level.
//
// On the root, data is the source and is returned as-is; on other ranks the
// received copy is returned (never aliasing any forwarded buffer) and data
// is ignored. Only the root consults the algorithm choice: the wire format
// is self-describing (segment 0 carries total length and segment size), so
// receivers adapt to whatever the root chose.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	algo := Binomial
	var out []byte
	err := c.run(opBcast, &algo, func(seq uint32) (err error) {
		if root < 0 || root >= c.size {
			return errBadRoot("Bcast", root, c.size)
		}
		out, algo, err = c.bcast(seq, root, data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// bcastPrefixLen is the extra segment-0 payload: total length and segment
// size, both uint32, so receivers can size the result and count segments.
const bcastPrefixLen = 8

// bcast returns the broadcast payload and the algorithm that carried it.
func (c *Comm) bcast(seq uint32, root int, data []byte) ([]byte, Algo, error) {
	rel := (c.rank - root + c.size) % c.size
	if rel == 0 {
		algo, err := c.bcastRoot(seq, root, data)
		return data, algo, err
	}

	// Find the binomial parent: the peer across this rank's lowest set bit.
	mask := 1
	for rel&mask == 0 {
		mask <<= 1
	}
	parent := (rel - mask + root) % c.size

	p0, err := c.recv(parent, opBcast, c.hdr(seq, 0, opBcast))
	if err != nil {
		return nil, Binomial, err
	}
	if len(p0) < c.hlen+bcastPrefixLen {
		return nil, Binomial, fmt.Errorf("collective: bcast segment 0 payload %d bytes", len(p0))
	}
	total := int(binary.LittleEndian.Uint32(p0[c.hlen:]))
	segSize := int(binary.LittleEndian.Uint32(p0[c.hlen+4:]))
	nseg := 1
	if segSize > 0 {
		nseg = (total + segSize - 1) / segSize
	}
	if nseg < 1 {
		nseg = 1
	}
	algo := Binomial
	if nseg > 1 {
		algo = BinomialSeg
	}

	// Forward before copying: the sends are cheap enqueues and the children
	// can start their own forwarding while we assemble locally. Forwarded
	// payloads go out verbatim (same header, multiple recipients), so they
	// are never recycled and the local result is assembled into a fresh
	// buffer rather than aliasing them. With diagnosis on, the trailer must
	// carry this hop's fold word and send time instead of the parent's —
	// but the received payload may still back a retransmit buffer upstream,
	// so it is re-stamped on a copy, never in place.
	hasChild := false
	for m := mask >> 1; m > 0; m >>= 1 {
		if rel+m < c.size {
			hasChild = true
			break
		}
	}
	out := make([]byte, total)
	forward := func(p []byte) error {
		if !hasChild {
			return nil
		}
		if c.diagEnabled() {
			fp := make([]byte, len(p))
			copy(fp, p)
			c.stamp(fp)
			p = fp
		}
		for m := mask >> 1; m > 0; m >>= 1 {
			if rel+m < c.size {
				if err := c.sendRaw((rel+m+root)%c.size, opBcast, p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := forward(p0); err != nil {
		return nil, algo, err
	}
	if err := copySeg(out, 0, segSize, total, p0[c.hlen+bcastPrefixLen:]); err != nil {
		return nil, algo, err
	}
	for s := 1; s < nseg; s++ {
		p, err := c.recv(parent, opBcast, c.hdr(seq, s, opBcast))
		if err != nil {
			return nil, algo, err
		}
		if err := forward(p); err != nil {
			return nil, algo, err
		}
		if err := copySeg(out, s, segSize, total, p[c.hlen:]); err != nil {
			return nil, algo, err
		}
	}
	return out, algo, nil
}

// bcastRoot sends data down the tree and returns the algorithm it used:
// BinomialSeg when the table's threshold and segment size split the payload
// into more than one segment, Binomial otherwise.
func (c *Comm) bcastRoot(seq uint32, root int, data []byte) (Algo, error) {
	if c.size == 1 {
		return Binomial, nil // nobody to send to: build no wire buffers
	}
	total := len(data)
	segSize := total
	if total >= c.table.BcastSegBytes {
		segSize = c.table.BcastSegSize
	}
	if segSize <= 0 || segSize > total {
		segSize = total
	}
	nseg := 1
	if segSize > 0 {
		nseg = (total + segSize - 1) / segSize
	}
	if nseg > maxBcastSegs {
		segSize = (total + maxBcastSegs - 1) / maxBcastSegs
		nseg = (total + segSize - 1) / segSize
	}
	algo := Binomial
	if nseg > 1 {
		algo = BinomialSeg
	}

	topmask := 1
	for topmask < c.size {
		topmask <<= 1
	}
	for s := 0; s < nseg; s++ {
		lo := s * segSize
		hi := min(lo+segSize, total)
		var p []byte
		if s == 0 {
			p = make([]byte, c.hlen+bcastPrefixLen+hi-lo)
			putHdr(p, c.hdr(seq, 0, opBcast))
			binary.LittleEndian.PutUint32(p[c.hlen:], uint32(total))
			binary.LittleEndian.PutUint32(p[c.hlen+4:], uint32(segSize))
			copy(p[c.hlen+bcastPrefixLen:], data[lo:hi])
		} else {
			p = make([]byte, c.hlen+hi-lo)
			putHdr(p, c.hdr(seq, s, opBcast))
			copy(p[c.hlen:], data[lo:hi])
		}
		if c.diagEnabled() {
			// Stamped once, before the first send, while exclusively owned.
			c.stamp(p)
		}
		// Largest subtree first, so the deepest chain starts earliest.
		for m := topmask >> 1; m > 0; m >>= 1 {
			if m < c.size {
				if err := c.sendRaw((m+root)%c.size, opBcast, p); err != nil {
					return algo, err
				}
			}
		}
	}
	return algo, nil
}

// copySeg places a received segment body into the assembled result,
// validating its length against the self-describing geometry.
func copySeg(out []byte, s, segSize, total int, body []byte) error {
	lo := s * segSize
	hi := min(lo+segSize, total)
	if segSize == 0 {
		lo, hi = 0, 0
	}
	if len(body) != hi-lo || lo > total {
		return fmt.Errorf("collective: bcast segment %d is %d bytes, want %d", s, len(body), hi-lo)
	}
	copy(out[lo:hi], body)
	return nil
}
