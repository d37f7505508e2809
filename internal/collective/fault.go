package collective

// ULFM-style fault tolerance for the collective substrate. A rank dying
// mid-collective must not leave survivors hung or erroring inconsistently:
// the paper's Property 1 (identical collective sequences on every process)
// only survives a failure if every survivor observes the *same* failure at
// the *same* point in its sequence. The machinery here mirrors MPI's
// User-Level Failure Mitigation triplet:
//
//	suspect — per-round receive deadlines turn an unresponsive peer into a
//	          typed RankFailedError and a local suspect-list entry.
//	revoke  — Revoke floods a poison frame so ranks blocked in *other*
//	          rounds or operations unblock promptly with ErrRevoked instead
//	          of draining their own deadline.
//	agree   — AgreeFailures runs a fault-tolerant agreement (it tolerates
//	          failures during the agreement itself) producing an identical
//	          failed-rank set on every survivor.
//	shrink  — Shrink re-ranks the survivors into a fresh Comm whose frames
//	          carry a bumped epoch byte, so stale traffic from the old group
//	          can never match; every operation in the dispatch table works
//	          unchanged on the shrunk group.
//
// Epochs live in the previously reserved low byte of the 8-byte collective
// header (payload[0] in the little-endian encoding), so matchHdr's exact
// 64-bit compare enforces them for free and a receiver can classify any
// frame's epoch without decoding it. Epoch comparison is circular
// (signed-byte delta): frames from an older epoch are dropped, frames from
// a future epoch — survivors that already shrunk and raced ahead — are
// parked for the successor Comm, which inherits them through Shrink.
//
// The failure detector is timeout-based and therefore only accurate under
// partial synchrony: a live rank stalled past the receive deadline is
// indistinguishable from a dead one and may be agreed out of the group (it
// learns of its exclusion via ErrExcluded). The intended recovery sequence —
// Revoke, then AgreeFailures, then Shrink on every survivor — keeps that
// window small, because revocation unblocks every survivor long before its
// own deadline could elect a false suspect.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// Control-plane transport tags. They share KindCollective so a control frame
// unblocks any collective receive, but are matched by tag, never by opTags.
const (
	tagRevoke = "ft.revoke"
	tagAgree  = "ft.agree"
)

// Control opIDs sit far outside the data-op range [0, numOps): they appear
// only in the header op byte of control frames and must never index the
// opTags or instrument arrays.
const (
	opRevoke opID = 250
	opAgree  opID = 251
)

// ErrRevoked reports that this communicator was revoked — by a local Revoke
// call, a revocation frame from a peer, or a completed Shrink (the parent
// Comm is poisoned so stray use fails fast instead of corrupting the
// successor group's traffic).
var ErrRevoked = errors.New("collective: communicator revoked")

// ErrExcluded reports that the agreed failed set contains this rank itself:
// the group has (or will have) shrunk without it, typically because it
// stalled past its peers' receive deadlines. The process should stop using
// the communicator and rejoin through the recovery layer.
var ErrExcluded = errors.New("collective: rank excluded by failure agreement")

// RankFailedError reports that a specific peer rank is suspected dead: a
// receive deadline expired waiting for it, or the transport rejected a send
// to it. It unwraps to transport.ErrTimeout so existing errors.Is checks
// keep working. Rank is in the Comm's current (possibly shrunk) numbering.
type RankFailedError struct {
	Program string
	Rank    int    // suspected rank, current group numbering
	Op      string // operation tag in flight ("" when outside an op)
	Seq     uint32 // operation sequence number
	Round   int    // round within the operation
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("collective: rank %d of program %q suspected failed (op %s seq %d round %d)",
		e.Rank, e.Program, e.Op, e.Seq, e.Round)
}

// Unwrap makes errors.Is(err, transport.ErrTimeout) hold: a suspicion is a
// refined timeout, and pre-existing callers treat it as one.
func (e *RankFailedError) Unwrap() error { return transport.ErrTimeout }

// rankSet is a fixed-width bitmap over group ranks.
type rankSet []uint64

func newRankSet(size int) rankSet { return make(rankSet, (size+63)/64) }

func (s rankSet) has(r int) bool {
	w := r >> 6
	return w < len(s) && s[w]>>(uint(r)&63)&1 == 1
}

func (s rankSet) add(r int) { s[r>>6] |= 1 << (uint(r) & 63) }

// or merges o into s and reports whether s grew.
func (s rankSet) or(o rankSet) bool {
	grew := false
	for i, w := range o {
		if i >= len(s) {
			break
		}
		if w&^s[i] != 0 {
			grew = true
			s[i] |= w
		}
	}
	return grew
}

func (s rankSet) equal(o rankSet) bool {
	for i := 0; i < len(s) || i < len(o); i++ {
		var a, b uint64
		if i < len(s) {
			a = s[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

func (s rankSet) count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func (s rankSet) clone() rankSet {
	o := make(rankSet, len(s))
	copy(o, s)
	return o
}

// ranks lists the set members ascending.
func (s rankSet) ranks() []int {
	out := make([]int, 0, s.count())
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			b := 0
			for ; w>>(uint(b))&1 == 0; b++ {
			}
			out = append(out, i*64+b)
		}
	}
	sort.Ints(out)
	return out
}

// hdr stamps this Comm's epoch into the header's low byte, so the exact
// compare in matchHdr rejects frames from any other epoch.
func (c *Comm) hdr(seq uint32, round int, op opID) uint64 {
	return hdr(seq, round, op) | uint64(c.epoch)
}

// epochDelta classifies a frame's epoch against ours: 0 current, >0 future
// (sender already shrunk past us), <0 stale. Deltas are circular signed
// bytes so the uint8 epoch may wrap. Malformed frames read as stale.
func epochDelta(payload []byte, epoch uint8) int {
	if len(payload) < hdrLen {
		return -1
	}
	return int(int8(payload[0] - epoch))
}

// Epoch returns this Comm's group epoch (bumped by every Shrink).
func (c *Comm) Epoch() uint8 { return c.epoch }

// BaseRank translates a current-group rank to its original pre-Shrink
// transport rank (identity on a never-shrunk group). Applications whose
// data placement was keyed by the original numbering use it to keep
// addressing stable across shrinks; out-of-range ranks return -1.
func (c *Comm) BaseRank(r int) int {
	if r < 0 || r >= c.size {
		return -1
	}
	return c.baseRank(r)
}

// baseRank translates a current-group rank to its base transport rank
// (identity before any Shrink; compositions of shrinks stay flat because
// each new peers slice is built through this translation).
func (c *Comm) baseRank(r int) int {
	if c.peers != nil {
		return c.peers[r]
	}
	return r
}

// addr is the transport address of a current-group rank.
func (c *Comm) addr(r int) transport.Addr {
	return transport.Proc(c.program, c.baseRank(r))
}

// suspect adds a rank to the local suspect list (idempotent). A timeout
// suspicion is a *hint*: the peer may merely be blocked behind the real
// failure, so suspicions fast-fail local receives but never seed the
// agreement — only hard evidence (markDead) does.
func (c *Comm) suspect(r int) {
	if c.suspects == nil {
		c.suspects = newRankSet(c.size)
	} else if c.suspects.has(r) {
		return
	}
	c.suspects.add(r)
	c.ins.incFailure(ctrSuspected)
}

// markDead records hard evidence of a rank's death — the transport reported
// its address gone — which both suspects it and seeds the next agreement.
func (c *Comm) markDead(r int) {
	c.suspect(r)
	if c.deadSet == nil {
		c.deadSet = newRankSet(c.size)
	}
	c.deadSet.add(r)
}

// failedErr builds the typed suspicion error for an in-flight operation.
func (c *Comm) failedErr(from int, op opID, h uint64) error {
	return &RankFailedError{
		Program: c.program, Rank: from, Op: opTags[op],
		Seq: uint32(h >> 32), Round: int(uint16(h >> 16)),
	}
}

// recordFT records a fault-tolerance flight event as a span named name on
// the attached ring (no-op without one).
func (c *Comm) recordFT(name, detail string) {
	c.ring.Record(obsv.Span{Name: name, TS: c.ring.Now(), Arg: int64(c.opSeq), Detail: detail})
}

// sendCtl best-effort-delivers a control frame; control floods never fail
// the caller (a dead destination is exactly the expected case), but a
// transport-confirmed dead address is harvested as hard evidence.
func (c *Comm) sendCtl(to int, tag string, payload []byte) {
	err := c.d.Send(transport.Message{
		Kind:    transport.KindCollective,
		Dst:     c.addr(to),
		Tag:     tag,
		Payload: payload,
	})
	if err != nil && errors.Is(err, transport.ErrUnknownAddr) {
		c.markDead(to)
	}
}

// Revoke poisons this communicator and floods a revocation frame to every
// other rank, so survivors blocked in unrelated rounds or operations
// unblock promptly with ErrRevoked instead of draining their own receive
// deadline. Call it after observing a RankFailedError, before
// AgreeFailures; revoking an already-revoked Comm is a cheap no-op.
func (c *Comm) Revoke() {
	if c.revoked {
		return
	}
	c.markRevoked()
	c.recordFT("flt.revoke", fmt.Sprintf("epoch=%d initiator", c.epoch))
	b := make([]byte, hdrLen)
	putHdr(b, c.hdr(0, 0, opRevoke))
	for r := 0; r < c.size; r++ {
		if r != c.rank {
			c.sendCtl(r, tagRevoke, b)
		}
	}
	c.pruneSuspectPending()
}

// markRevoked flips the revoked flag on receipt or initiation of a
// revocation and counts it.
func (c *Comm) markRevoked() {
	if c.revoked {
		return
	}
	c.revoked = true
	c.ins.incFailure(ctrRevokes)
}

// pruneSuspectPending drops parked current-epoch frames sent by suspected
// ranks: nothing will ever consume them (satellite fix for the pending-list
// leak; Shrink prunes the remainder by dropping the old epoch wholesale).
func (c *Comm) pruneSuspectPending() {
	if c.suspects == nil {
		return
	}
	kept := c.pending[:0]
	for _, m := range c.pending {
		if epochDelta(m.Payload, c.epoch) == 0 && c.fromSuspect(m.Src) {
			c.ins.incFailure(ctrStaleDropped)
			continue
		}
		kept = append(kept, m)
	}
	for i := len(kept); i < len(c.pending); i++ {
		c.pending[i] = transport.Message{}
	}
	c.pending = kept
}

// fromSuspect reports whether a frame's source address belongs to a
// suspected rank.
func (c *Comm) fromSuspect(src transport.Addr) bool {
	for r := 0; r < c.size; r++ {
		if c.suspects.has(r) && c.addr(r) == src {
			return true
		}
	}
	return false
}

// park buffers an out-of-order frame, evicting the oldest entry once the
// configured cap is reached so a dead peer's stragglers can never grow the
// list without bound.
func (c *Comm) park(m transport.Message) {
	if lim := c.pendingCap; lim > 0 && len(c.pending) >= lim {
		copy(c.pending, c.pending[1:])
		c.pending[len(c.pending)-1] = m
		c.ins.incFailure(ctrPendingEvict)
		return
	}
	c.pending = append(c.pending, m)
}

// Agreement wire format: after the 8-byte header (seq = per-Comm agreement
// episode counter, round = 0, op byte = opAgree, epoch low byte) the body is
//
//	byte  0      phase (0 sweep, 1 confirm, 2 decided)
//	bytes 1..2   attempt, little-endian uint16
//	bytes 3..4   round within the phase, little-endian uint16
//	byte  5      mask word count
//	bytes 6..    mask words, 8 bytes each, little-endian
const (
	phaseSweep   = 0
	phaseConfirm = 1
	phaseDecided = 2

	agreeBodyOff = hdrLen
	agreeMinLen  = hdrLen + 6
)

// appendAgree encodes one agreement frame.
func appendAgree(dst []byte, h uint64, phase, attempt, round int, mask rankSet) []byte {
	var hb [hdrLen]byte
	putHdr(hb[:], h)
	dst = append(dst, hb[:]...)
	dst = append(dst, byte(phase), byte(attempt), byte(attempt>>8), byte(round), byte(round>>8), byte(len(mask)))
	for _, w := range mask {
		dst = append(dst, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// decodeAgree parses an agreement frame body (header already matched by
// tag/epoch). The returned mask aliases nothing in b.
func decodeAgree(b []byte) (phase, attempt, round int, mask rankSet, err error) {
	if len(b) < agreeMinLen {
		return 0, 0, 0, nil, fmt.Errorf("collective: agree frame %d bytes", len(b))
	}
	body := b[agreeBodyOff:]
	phase = int(body[0])
	if phase > phaseDecided {
		return 0, 0, 0, nil, fmt.Errorf("collective: agree phase %d", phase)
	}
	attempt = int(body[1]) | int(body[2])<<8
	round = int(body[3]) | int(body[4])<<8
	nwords := int(body[5])
	if len(body) < 6+8*nwords {
		return 0, 0, 0, nil, fmt.Errorf("collective: agree frame claims %d mask words, %d bytes remain", nwords, len(body)-6)
	}
	mask = make(rankSet, nwords)
	for i := range mask {
		p := body[6+8*i:]
		mask[i] = uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	}
	return phase, attempt, round, mask, nil
}

// agreeState tracks one AgreeFailures episode: the flooding round this rank
// is collecting, the highest round each peer has answered, and the adopted
// decision once a DECIDED frame arrives.
type agreeState struct {
	round    int
	ansRound []int
	decided  rankSet
}

func newAgreeState(n int) *agreeState {
	st := &agreeState{ansRound: make([]int, n)}
	for i := range st.ansRound {
		st.ansRound[i] = -1
	}
	return st
}

// absorb merges one decoded agreement frame from group rank src (-1 when the
// source is not a group member). Masks merge monotonically — suspicion is
// permanent within an episode — and any frame for round r also answers every
// earlier round, so ansRound only moves forward.
func (st *agreeState) absorb(mask rankSet, src, phase, round int, peerMask rankSet) {
	mask.or(peerMask)
	if phase == phaseDecided {
		st.decided = peerMask
		return
	}
	if src >= 0 && round > st.ansRound[src] {
		st.ansRound[src] = round
	}
}

// roundComplete reports whether every rank still considered alive has
// answered the current collection round.
func (c *Comm) roundComplete(st *agreeState, mask rankSet) bool {
	for r := 0; r < c.size; r++ {
		if r != c.rank && !mask.has(r) && st.ansRound[r] < st.round {
			return false
		}
	}
	return true
}

// absorbFrame classifies one frame received during agreement.
func (c *Comm) absorbFrame(st *agreeState, seq uint32, mask rankSet, m transport.Message) {
	d := epochDelta(m.Payload, c.epoch)
	switch m.Tag {
	case tagAgree:
		if d != 0 {
			if d > 0 {
				c.park(m) // a successor group's episode; keep for it
			} else {
				c.ins.incFailure(ctrStaleDropped)
			}
			return
		}
		fseq := uint32(binary.LittleEndian.Uint64(m.Payload) >> 32)
		if fseq != seq {
			if fseq > seq {
				c.park(m) // a later episode in this epoch
			} else {
				c.ins.incFailure(ctrStaleDropped)
			}
			return
		}
		phase, _, round, peerMask, err := decodeAgree(m.Payload)
		if err != nil {
			c.ins.incFailure(ctrStaleDropped)
			return
		}
		src, ok := c.groupRankOf(m.Src)
		if !ok {
			src = -1
		}
		st.absorb(mask, src, phase, round, peerMask)
	case tagRevoke:
		// Already recovering: a current-epoch revocation is old news, a
		// future one belongs to the successor group.
		if d > 0 {
			c.park(m)
		}
	default:
		if d >= 0 {
			c.park(m) // interrupted-op traffic (current) or successor traffic (future)
		} else {
			c.ins.incFailure(ctrStaleDropped)
		}
	}
}

// drainParkedAgree absorbs this episode's agreement frames that arrived
// before the episode's collect loop was entered: a peer that detected the
// failure first floods its sweep — or even its DECIDED frame — while this
// rank is still blocked inside the interrupted data operation, ahead of the
// revocation that unblocks it, and the data receive loop parks such frames.
// Without the drain this rank would wait a full deadline for answers it is
// already holding, be agreed out as silent by its peers, and their
// fixpoint decision would exclude a live rank.
func (c *Comm) drainParkedAgree(st *agreeState, seq uint32, mask rankSet) {
	if len(c.pending) == 0 {
		return
	}
	var drained []transport.Message
	kept := c.pending[:0]
	for _, m := range c.pending {
		if m.Tag == tagAgree && epochDelta(m.Payload, c.epoch) == 0 &&
			uint32(binary.LittleEndian.Uint64(m.Payload)>>32) == seq {
			drained = append(drained, m)
			continue
		}
		kept = append(kept, m)
	}
	for i := len(kept); i < len(c.pending); i++ {
		c.pending[i] = transport.Message{}
	}
	c.pending = kept
	// Absorb after compacting: absorbFrame never re-parks frames of the
	// current (epoch, episode), which is exactly what was drained.
	for _, m := range drained {
		c.absorbFrame(st, seq, mask, m)
	}
}

// AgreeFailures runs fault-tolerant agreement on the failed-rank set. Every
// surviving rank of the group must call it once per failure episode (the
// intended sequence is Revoke, AgreeFailures, Shrink on each survivor);
// the returned slice — sorted, in current group numbering — is identical on
// every survivor, including survivors that fail *during* the agreement,
// which are added to the set on the fly. If the agreed set contains this
// rank itself the call returns ErrExcluded.
//
// The agreement decides on *non-participation*: its seed is only hard
// transport evidence (addresses the network reports gone), and any rank
// that fails to answer within the receive deadline during the agreement is
// added. Timeout suspicions from earlier data operations are deliberately
// not seeds — a live rank blocked behind the real failure times out on its
// peers exactly like a dead one, and seeding those hints would agree live
// ranks out of the group. Since Revoke has already unblocked every
// survivor, live ranks answer promptly here and only truly unresponsive
// ones are excluded.
//
// Protocol: all-to-all flooding rounds. In round r every rank sends its
// cumulative suspect mask to every rank not in it and then collects a
// round-≥r mask from each of them, merging monotonically; a peer silent past
// the receive deadline is added to the mask. Every wait is a *direct*
// observation of its peer — there is no relay chain — so a live rank can
// never be suspected merely because it sat behind the real failure, which is
// the false-suspicion cascade that log-topology dissemination suffers when
// all deadlines expire simultaneously. A round that ends with the mask
// unchanged is a witnessed fixpoint: every live peer's round-r mask merged
// into this rank's without growing it, so for any two such ranks the masks
// are mutually contained and therefore equal. The witness floods a DECIDED
// frame that every other rank adopts verbatim, rescuing ranks that kept
// growing past the fixpoint. Masks grow monotonically over at most n ranks,
// so the episode takes at most n+1 rounds, and each round costs one receive
// deadline at worst.
func (c *Comm) AgreeFailures() ([]int, error) {
	seq := c.agreeSeq
	c.agreeSeq++
	mask := newRankSet(c.size)
	if c.deadSet != nil {
		mask.or(c.deadSet)
	}
	if c.size > 1 {
		if err := c.agree(seq, mask); err != nil {
			return nil, err
		}
	}
	// Record the agreed set as suspicions so subsequent receives fail fast,
	// and drop parked frames nobody will consume.
	if c.suspects == nil {
		c.suspects = newRankSet(c.size)
	}
	c.suspects.or(mask)
	c.pruneSuspectPending()
	c.ins.incFailure(ctrAgreed)
	failed := mask.ranks()
	c.recordFT("flt.agree", fmt.Sprintf("failed=%v epoch=%d", failed, c.epoch))
	if mask.has(c.rank) {
		return failed, ErrExcluded
	}
	return failed, nil
}

// agree drives one agreement episode, folding the result into mask.
func (c *Comm) agree(seq uint32, mask rankSet) error {
	n := c.size
	st := newAgreeState(n)
	h := c.hdr(seq, 0, opAgree)
	var scratch []byte
	// flood sends (phase, round, mask) to every rank the filter approves;
	// payloads
	// are copied per send because the transport may retain them (agreement is
	// far off the hot path).
	flood := func(phase, round int, to func(r int) bool) {
		scratch = appendAgree(scratch[:0], h, phase, 0, round, mask)
		for r := 0; r < n; r++ {
			if r == c.rank || !to(r) {
				continue
			}
			p := make([]byte, len(scratch))
			copy(p, scratch)
			c.sendCtl(r, tagAgree, p)
		}
	}
	for {
		if c.deadSet != nil {
			// Hard evidence harvested since the last round (failed control
			// sends included) joins the mask before it is published.
			mask.or(c.deadSet)
		}
		start := mask.clone()
		flood(phaseSweep, st.round, func(r int) bool { return !mask.has(r) })
		c.drainParkedAgree(st, seq, mask)
		for st.decided == nil && !c.roundComplete(st, mask) {
			m, err := c.d.RecvDeadline(transport.KindCollective, c.deadline())
			if err != nil {
				if !errors.Is(err, transport.ErrTimeout) {
					return err // dispatcher closed or transport fault
				}
				if c.clk.Since(c.armedAt) < c.timeout {
					continue // stale timer fire; see Comm.deadline
				}
				// Deadline expired with live peers still silent: every one of
				// them is directly suspected.
				for r := 0; r < n; r++ {
					if r != c.rank && !mask.has(r) && st.ansRound[r] < st.round {
						c.suspect(r)
						mask.add(r)
					}
				}
				break
			}
			c.absorbFrame(st, seq, mask, m)
		}
		if st.decided != nil {
			// Adopt the decided set exactly — consistency requires every
			// survivor to return the decider's set, not its own merged view
			// (suspicions the decider never witnessed stay local and feed the
			// next episode instead).
			for i := range mask {
				mask[i] = 0
			}
			mask.or(st.decided)
			return nil
		}
		if mask.equal(start) {
			// Fixpoint witnessed. A rank that finds *itself* in the mask has
			// been excluded by its peers and must not publish a decision —
			// its own view (everyone who ghosted it) is not authoritative —
			// so it just returns and AgreeFailures yields ErrExcluded.
			if !mask.has(c.rank) {
				flood(phaseDecided, 0, func(int) bool { return true })
			}
			return nil
		}
		st.round++
	}
}

// Shrink builds the survivor communicator: failed (the exact set returned
// by AgreeFailures, current group numbering) is removed, survivors are
// re-ranked densely preserving order, and the group epoch is bumped so
// frames from the old group can never match. The parent Comm is poisoned
// (all further operations return ErrRevoked); buffers, dispatch table,
// instruments and span ring carry over, as do parked frames already
// belonging to the successor epoch. An empty failed set is legal and
// rebuilds the group in place — useful after a spurious revocation, since
// the epoch bump discards any interrupted operation's traffic.
//
// All survivors must call Shrink with the identical failed set (guaranteed
// when it comes from AgreeFailures); they then derive the same re-ranking
// and the same epoch, so the shrunk groups line up without any extra
// communication.
func (c *Comm) Shrink(failed []int) (*Comm, error) {
	f := newRankSet(c.size)
	for _, r := range failed {
		if r < 0 || r >= c.size {
			return nil, fmt.Errorf("collective: Shrink rank %d outside group of %d", r, c.size)
		}
		f.add(r)
	}
	if f.has(c.rank) {
		return nil, ErrExcluded
	}
	newPeers := make([]int, 0, c.size-f.count())
	newRank := -1
	for r := 0; r < c.size; r++ {
		if f.has(r) {
			continue
		}
		if r == c.rank {
			newRank = len(newPeers)
		}
		newPeers = append(newPeers, c.baseRank(r))
	}
	nc := &Comm{
		d: c.d, program: c.program, rank: newRank, size: len(newPeers),
		timeout: c.timeout, table: c.table,
		epoch: c.epoch + 1, peers: newPeers,
		pendingCap: c.pendingCap, pending: newPending(len(newPeers), c.pendingCap),
		pool: c.pool, seen: c.seen, fscratch: c.fscratch,
		ins: c.ins, ring: c.ring,
		timer: c.timer, clk: c.clk, armedAt: c.armedAt,
	}
	// Carry parked frames that already belong to the successor (or a later)
	// epoch; everything at the old epoch dies with the old group. A parked
	// revocation of the successor epoch poisons it immediately (cascading
	// failure observed before the shrink completed).
	for _, m := range c.pending {
		d := epochDelta(m.Payload, nc.epoch)
		if d < 0 {
			c.ins.incFailure(ctrStaleDropped)
			continue
		}
		if m.Tag == tagRevoke && d == 0 {
			nc.markRevoked()
			continue
		}
		nc.park(m)
	}
	// Point-to-point frames are epoch-less; keep everything except traffic
	// from the failed ranks.
	for _, m := range c.pointPending {
		if src, ok := c.groupRankOf(m.Src); ok && f.has(src) {
			continue
		}
		nc.pointPending = append(nc.pointPending, m)
	}
	// Poison the parent so stray use fails instead of stealing the
	// successor's frames off the shared dispatcher.
	c.revoked = true
	c.pending, c.pointPending, c.pool, c.seen, c.fscratch, c.timer = nil, nil, nil, buffer.FrameStats{}, nil, nil
	nc.ins.incFailure(ctrShrinks)
	nc.recordFT("flt.shrink", fmt.Sprintf("epoch=%d size=%d rank %d->%d", nc.epoch, nc.size, c.rank, newRank))
	return nc, nil
}

// groupRankOf inverts addr: the current-group rank owning a transport
// address, if any.
func (c *Comm) groupRankOf(src transport.Addr) (int, bool) {
	for r := 0; r < c.size; r++ {
		if c.addr(r) == src {
			return r, true
		}
	}
	return -1, false
}
