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
// received copy is returned (aliasing no wire buffer) and data is ignored.
// Only the root consults the algorithm choice: the wire format is
// self-describing (segment 0 carries total length and segment size), so
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

// bcastTree is one rank's place in a broadcast's binomial tree: its children
// are rel+m for m = mask>>1, mask>>2, ... inside the group, largest first.
type bcastTree struct {
	seq             uint32
	root, rel, mask int
	total, segSize  int
}

// bcast returns the broadcast payload and the algorithm that carried it.
func (c *Comm) bcast(seq uint32, root int, data []byte) ([]byte, Algo, error) {
	t := bcastTree{seq: seq, root: root, rel: (c.rank - root + c.size) % c.size}
	if t.rel == 0 {
		algo, err := c.bcastRoot(t, data)
		return data, algo, err
	}

	// Find the binomial parent: the peer across this rank's lowest set bit.
	t.mask = 1
	for t.rel&t.mask == 0 {
		t.mask <<= 1
	}
	parent := (t.rel - t.mask + root) % c.size

	p0, err := c.recv(parent, opBcast, c.hdr(seq, 0, opBcast))
	if err != nil {
		return nil, Binomial, err
	}
	if len(p0) < hdrLen+bcastPrefixLen {
		return nil, Binomial, fmt.Errorf("collective: bcast segment 0 payload %d bytes", len(p0))
	}
	t.total = int(binary.LittleEndian.Uint32(p0[hdrLen:]))
	t.segSize = int(binary.LittleEndian.Uint32(p0[hdrLen+4:]))
	nseg, algo := segments(t.total, t.segSize)

	out := make([]byte, t.total)
	for s, p := 0, p0; ; {
		body := p[hdrLen:]
		if s == 0 {
			body = body[bcastPrefixLen:]
		}
		if err := copySeg(out, s, t.segSize, t.total, body); err != nil {
			return nil, algo, err
		}
		if err := c.bcastDown(t, s, p, out); err != nil {
			return nil, algo, err
		}
		if s++; s == nseg {
			return out, algo, nil
		}
		if p, err = c.recv(parent, opBcast, c.hdr(seq, s, opBcast)); err != nil {
			return nil, algo, err
		}
	}
}

// bcastRoot sends data down the tree and returns the algorithm it used:
// BinomialSeg when the table's threshold and segment size split the payload
// into more than one segment, Binomial otherwise.
func (c *Comm) bcastRoot(t bcastTree, data []byte) (Algo, error) {
	total := len(data)
	segSize := total
	if total >= c.table.BcastSegBytes {
		segSize = c.table.BcastSegSize
	}
	if segSize <= 0 || segSize > total {
		segSize = total
	}
	nseg, algo := segments(total, segSize)
	if nseg > maxBcastSegs {
		segSize = (total + maxBcastSegs - 1) / maxBcastSegs
		nseg, _ = segments(total, segSize)
	}

	t.total, t.segSize, t.mask = total, segSize, 1
	for t.mask < c.size {
		t.mask <<= 1
	}
	for s := 0; s < nseg; s++ {
		if err := c.bcastDown(t, s, nil, data); err != nil {
			return algo, err
		}
	}
	return algo, nil
}

// bcastDown sends segment s to this rank's children. frame is the frame it
// arrived in (nil on the root), src the payload, which already holds its
// body. On an owning Comm every child recycles what it receives, so each
// gets a frame of its own: the first the received one, handed on, the
// others pooled ones built from src; a leaf recycles. Otherwise one frame
// serves every child.
func (c *Comm) bcastDown(t bcastTree, s int, frame, src []byte) error {
	for m := t.mask >> 1; m > 0; m >>= 1 {
		if t.rel+m >= c.size {
			continue
		}
		if frame == nil {
			frame = c.bcastFrame(t, s, src)
		}
		if err := c.sendRaw((t.rel+m+t.root)%c.size, opBcast, frame); err != nil {
			return err
		}
		if c.pool != nil {
			frame = nil // the child's now
		}
	}
	c.pool.Put(frame)
	return nil
}

// bcastFrame builds segment s's frame from the whole payload.
func (c *Comm) bcastFrame(t bcastTree, s int, payload []byte) []byte {
	lo := s * t.segSize
	body := payload[lo:min(lo+t.segSize, t.total)]
	if s > 0 {
		p := c.frame(c.hdr(t.seq, s, opBcast), len(body))
		copy(p[hdrLen:], body)
		return p
	}
	p := c.frame(c.hdr(t.seq, 0, opBcast), bcastPrefixLen+len(body))
	binary.LittleEndian.PutUint32(p[hdrLen:], uint32(t.total))
	binary.LittleEndian.PutUint32(p[hdrLen+4:], uint32(t.segSize))
	copy(p[hdrLen+bcastPrefixLen:], body)
	return p
}

// segments counts the segSize-byte segments of total bytes (at least one)
// and names the algorithm: BinomialSeg past one segment.
func segments(total, segSize int) (int, Algo) {
	if segSize <= 0 || total <= segSize {
		return 1, Binomial
	}
	return (total + segSize - 1) / segSize, BinomialSeg
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
