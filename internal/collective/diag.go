package collective

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/diag"
)

// Critical-path attribution piggybacks on the collective payloads
// themselves: with diagnosis enabled every payload carries, between the
// 8-byte operation header and the body, a 16-byte trailer
//
//	bytes 0..7   fold word: bits 16..63 the largest wait (ns) any rank on
//	             the sender's causal path attributed so far, bits 0..15 the
//	             blamed rank as an int16 (-1 = nobody yet)
//	bytes 8..15  send timestamp, nanoseconds on the group's clock
//
// On every receive a rank measures its own wait (send_ts − post_ts: how
// long the peer kept it blocked) and transfer time (arrival − max(send_ts,
// post_ts)), folds the peer's fold word with max-semantics, and — after
// subtracting the wait the peer itself was suffering, so cascaded stalls
// collapse onto their origin — considers blaming the peer directly. Because
// every collective's communication graph connects all ranks, the fold word
// converges exactly like the operation's own reduction: by the last round
// every rank knows the straggler and its critical-path wait, with zero
// extra messages (the same piggybacking trick Property 1 uses).
//
// The per-send cost is two clock reads and 16 bytes; with diagnosis off the
// trailer is absent and the hot path keeps its 0 allocs/op guarantee.
const trailerLen = 16

// DefaultDiagMinWait is the attribution noise floor: measured waits below
// it never blame anyone, so scheduler jitter does not elect stragglers.
const DefaultDiagMinWait = 20 * time.Microsecond

// diagState is the per-operation attribution accumulator, reset by run.
type diagState struct {
	active  bool
	lastNS  int64 // most recent receive-arrival clock read, reused by stamp
	waitNS  int64 // this rank's summed wait across the op's receives
	xferNS  int64 // this rank's summed transfer time
	maxWait int64 // largest attributed wait seen on any causal path
	maxRank int32 // rank blamed for maxWait; -1 = none
}

// SetDiag attaches critical-path attribution and flight events to this
// Comm. With a board, finished operations are Note()d on it; diagnosis
// changes the wire layout (every payload grows a trailerLen trailer), so like
// SetTable it must be applied group-consistently: every rank of the group,
// or none. With a ring, finished operations (under a board) and the fault
// events — revoke, agree, shrink — are recorded on it as flt.* spans. A nil
// board means no trailer; a nil ring means no spans.
func (c *Comm) SetDiag(board *diag.Board, ring *obsv.Ring) {
	c.board, c.ring = board, ring
	if board == nil {
		c.hlen = hdrLen
		c.dclk = nil
		c.dstate = diagState{}
		return
	}
	c.hlen = hdrLen + trailerLen
	// Timestamps must come from one clock per group: the dispatcher's, which
	// core sets to the framework clock on every process.
	c.dclk = c.d.Clock()
}

// Board returns the attached straggler board (possibly nil).
func (c *Comm) Board() *diag.Board { return c.board }

func (c *Comm) nowNS() int64 { return c.dclk.Now().UnixNano() }

// diagEnabled reports whether payloads carry the attribution trailer.
func (c *Comm) diagEnabled() bool { return c.hlen != hdrLen }

// stamp writes the attribution trailer into a payload this rank still
// exclusively owns (before its first send: transports may retain sent
// payloads for retransmission, so stamping after a send would race).
func (c *Comm) stamp(b []byte) {
	d := &c.dstate
	wait := d.maxWait
	if wait < 0 {
		wait = 0
	}
	fold := uint64(wait)<<16 | uint64(uint16(d.maxRank))
	binary.LittleEndian.PutUint64(b[hdrLen:], fold)
	// Clock reads dominate the trailer's cost on the latency-bound hot
	// path, so the send timestamp reuses the operation's latest
	// receive-arrival read when one exists. It backdates the stamp by the
	// local compute between receive and send — which only under-measures
	// the wait the peer attributes to us, a conservative error far below
	// the noise floor.
	ts := d.lastNS
	if ts == 0 {
		ts = c.nowNS()
		d.lastNS = ts
	}
	binary.LittleEndian.PutUint64(b[hdrLen+8:], uint64(ts))
}

// diagFold absorbs a received payload's trailer. live receives (the rank
// was actually posted, postNS/recvNS measured around the delivery) also
// contribute wait/transfer measurements; payloads consumed from the pending
// list arrived while this rank was posted elsewhere, so only their fold
// word is merged.
func (c *Comm) diagFold(from int, p []byte, live bool, postNS, recvNS int64) {
	d := &c.dstate
	if !d.active || len(p) < hdrLen+trailerLen {
		return
	}
	word := binary.LittleEndian.Uint64(p[hdrLen:])
	peerRank := int32(int16(uint16(word)))
	peerWait := int64(word >> 16)
	if peerRank >= 0 && peerWait > d.maxWait {
		d.maxWait, d.maxRank = peerWait, peerRank
	}
	if !live {
		return
	}
	d.lastNS = recvNS
	sendNS := int64(binary.LittleEndian.Uint64(p[hdrLen+8:]))
	wait := sendNS - postNS
	if wait < 0 {
		wait = 0
	}
	from64 := sendNS
	if postNS > from64 {
		from64 = postNS
	}
	if xfer := recvNS - from64; xfer > 0 {
		d.xferNS += xfer
	}
	d.waitNS += wait
	// The peer's stamp already accounts for the wait it was itself
	// suffering when it sent; subtract it so a cascaded stall is blamed on
	// its origin, not on every intermediate hop.
	intrinsic := wait
	if peerRank >= 0 {
		intrinsic -= peerWait
	}
	if intrinsic >= int64(DefaultDiagMinWait) && intrinsic > d.maxWait {
		d.maxWait, d.maxRank = intrinsic, int32(from)
	}
}

// diagEnd flushes the finished operation's attribution: one board note, the
// straggler instruments, and (when a ring is attached) an flt.collective
// span. It is idempotent per operation, so composed collectives — whose
// inner ops each ran their own begin/end — no-op on the outer flush.
func (c *Comm) diagEnd(op opID) {
	d := &c.dstate
	if !d.active {
		return
	}
	d.active = false
	blamed := int(d.maxRank)
	c.board.Note(c.opSeq, c.rank, blamed, d.maxWait, d.xferNS)
	c.ins.observeStraggler(op, blamed, d.waitNS, d.xferNS)
	if c.ring != nil {
		c.ring.Record(obsv.Span{
			Name: "flt.collective", TS: c.ring.Now(), Arg: int64(c.opSeq),
			Detail: fmt.Sprintf("%s blamed=%d wait=%v", opTags[op], blamed, time.Duration(d.waitNS)),
		})
	}
}
