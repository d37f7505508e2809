// Package collective implements the collective-operation substrate the
// paper's title refers to: process groups with ranks and the classic SPMD
// collectives (barrier, broadcast, reduce, allreduce, gather, allgather,
// scatter, alltoall), built on the transport layer the way MPI builds them on
// point-to-point messaging.
//
// Every process of a parallel program holds a Comm. Collective calls must be
// made by all members of the group in the same order — exactly the collective
// property the coupling framework's export/import operations also obey
// (Property 1 in the paper).
//
// The engine is multi-algorithm: each operation carries a latency-optimal and
// a bandwidth-optimal implementation (see algo.go), dispatched per call on
// (group size, vector bytes) through the Comm's Table, the only selector.
//
// Buffer ownership (docs/COLLECTIVES.md): a slice a collective returns
// aliases neither an input nor a wire buffer, and a wire buffer is recycled
// only by the one rank that received it, and only where the transport says
// that rank holds it exclusively (Endpoint.Frames is non-nil, read once by
// New).
package collective

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// DefaultTimeout bounds how long a collective waits for a peer message before
// reporting a likely deadlock or dead peer. Coupled-simulation components can
// legitimately drift apart by long compute phases, so this is generous.
const DefaultTimeout = 60 * time.Second

// defaultPendingCap bounds the parked out-of-order frame list: frames from a
// failed or stale rank must not accumulate forever, so past the cap the
// oldest parked frame is evicted (and counted). Legitimate traffic never
// comes close — a group's skew is bounded by rounds in flight.
const defaultPendingCap = 4096

// newPending pre-sizes the parked-frame list for the skew a healthy group
// shows (a few rounds in flight per peer), so rank skew past what earlier
// operations happened to reach does not grow it on the hot path.
func newPending(size, pendingCap int) []transport.Message {
	return make([]transport.Message, 0, min(4*size, pendingCap))
}

// Comm is one process's handle on its program's process group.
type Comm struct {
	d       *transport.Dispatcher
	program string
	rank    int
	size    int
	opSeq   uint32
	timeout time.Duration
	table   *Table

	// pending holds collective messages received out of the order this rank
	// consumes them (peers may progress into later rounds or operations
	// before this rank finishes the current one).
	pending []transport.Message
	// pointPending does the same for application point-to-point messages.
	pointPending []transport.Message

	// timer is the reused receive-deadline timer (allocated on first use
	// from the dispatcher's clock, re-armed per receive). armedAt records
	// the clock reading at the latest re-arm so receive loops can tell a
	// genuine deadline from a stale fire (see deadline).
	timer   vclock.Timer
	clk     vclock.Clock
	armedAt time.Time

	// Fault tolerance (fault.go). epoch stamps the low header byte so a
	// shrunk group's frames never match a stale group's; peers maps
	// current-group ranks to base transport ranks after shrinks (nil =
	// identity); suspects is the local failure detector's output; revoked
	// poisons the Comm; agreeSeq counts AgreeFailures episodes; pendingCap
	// bounds the parked-frame list.
	epoch      uint8
	peers      []int
	suspects   rankSet
	deadSet    rankSet
	revoked    bool
	agreeSeq   uint32
	pendingCap int

	// pool is this Comm's own frame pool, non-nil where the transport's
	// endpoint has one (a received payload is this rank's alone): every send
	// draws from it and every receive refills it. nil pools nothing. seen is
	// the pool's counters as last reported to the instruments.
	pool     *buffer.Frames
	seen     buffer.FrameStats
	fscratch []float64
	one      [1]float64 // the scalar reductions' vector

	ins *Instruments

	// ring is the process's span lane, where the fault events go as flt.*
	// spans (nil = none).
	ring *obsv.Ring
}

// New returns the Comm for rank within a size-process group named program.
// The dispatcher must belong to transport address {program, rank}.
func New(d *transport.Dispatcher, program string, rank, size int) (*Comm, error) {
	if size <= 0 {
		return nil, fmt.Errorf("collective: group size %d", size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("collective: rank %d outside group of %d", rank, size)
	}
	c := &Comm{
		d: d, program: program, rank: rank, size: size,
		timeout:    DefaultTimeout,
		table:      DefaultTable(),
		pendingCap: defaultPendingCap,
		pending:    newPending(size, defaultPendingCap),
	}
	if d.Frames() != nil {
		c.pool = new(buffer.Frames)
	}
	return c, nil
}

// Rank returns this process's rank in the group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.size }

// Program returns the program (group) name.
func (c *Comm) Program() string { return c.program }

// SetTimeout overrides the per-message wait bound used by collectives.
func (c *Comm) SetTimeout(d time.Duration) { c.timeout = d }

// SetInstruments attaches per-op/per-algorithm latency histograms (nil
// detaches); the bytes this Comm has parked move to the new pool gauge.
func (c *Comm) SetInstruments(ins *Instruments) {
	c.syncPool()
	c.ins.pooled(0, 0, -c.seen.Held)
	ins.pooled(0, 0, c.seen.Held)
	c.ins = ins
}

// syncPool moves the pool instruments by what the pool did since the last
// sync (Comms sharing instruments sum).
func (c *Comm) syncPool() {
	s := c.pool.Stats()
	c.ins.pooled(s.Hits-c.seen.Hits, s.Misses-c.seen.Misses, s.Held-c.seen.Held)
	c.seen = s
}

// SetRing attaches the span lane the fault events — revoke, agree, shrink —
// are recorded on as flt.* spans (nil detaches). It changes nothing on the
// wire, so ranks may attach independently.
func (c *Comm) SetRing(ring *obsv.Ring) { c.ring = ring }

// Instruments returns the attached instruments (possibly nil).
func (c *Comm) Instruments() *Instruments { return c.ins }

// Table returns the dispatch table in effect.
func (c *Comm) Table() *Table { return c.table }

// SetTable installs a dispatch table (nil restores the defaults). All ranks
// of a group must install identical tables at the same point of their
// collective sequence — dispatch decisions are made independently per rank
// and must agree. The table is read, never written, by the Comm.
func (c *Comm) SetTable(t *Table) {
	if t == nil {
		t = DefaultTable()
	}
	c.table = t
}

// scratch returns the reused float64 decode buffer, valid until the next
// scratch or recvScratch call.
func (c *Comm) scratch(n int) []float64 {
	if cap(c.fscratch) < n {
		c.fscratch = make([]float64, n)
	}
	return c.fscratch[:n]
}

// deadline re-arms the per-Comm receive timer and returns its channel,
// avoiding a timer allocation per receive.
//
// Invariant (the classic time.Timer re-arm pattern): the timer channel is
// only ever consumed by the single goroutine driving this Comm, so after
// Stop reports false the one buffered fire — if it already landed — is
// drained by the non-blocking select and Reset arms cleanly. The remaining
// race (pre-Go 1.23 runtimes): a fire in flight between the drain and the
// Reset lands *after* re-arming, so the next wait can pop a tick that
// predates its arming. That stale tick is unavoidable here, which is why
// armedAt records each arming and every receive loop treats a timeout whose
// elapsed time (on the same clock) is short of the configured deadline as
// spurious, re-arming instead of suspecting a peer. TestDeadlineTimerHammer
// exercises this back-to-back.
func (c *Comm) deadline() <-chan time.Time {
	if c.timer == nil {
		c.clk = c.d.Clock()
		c.armedAt = c.clk.Now()
		c.timer = c.clk.NewTimer(c.timeout)
		return c.timer.C()
	}
	if !c.timer.Stop() {
		// Drain a stale fire so Reset arms cleanly.
		select {
		case <-c.timer.C():
		default:
		}
	}
	c.armedAt = c.clk.Now()
	c.timer.Reset(c.timeout)
	return c.timer.C()
}

// run is the one entry path of every collective: it refuses a revoked Comm,
// takes the operation's sequence number, runs body and, on success, observes
// the latency under (op, *algo).
// Every rank executes the same collective sequence, so the per-Comm counter
// alone identifies the operation instance on all ranks; it advances before
// body can reject an argument, so a rank that rejects stays aligned with
// peers that did not (Scatter's part count is checked on the root only).
// algo is read after body because Bcast receivers learn the algorithm from
// segment 0. The clock is read only when instruments are attached.
func (c *Comm) run(op opID, algo *Algo, body func(seq uint32) error) error {
	if c.revoked {
		return ErrRevoked
	}
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	c.opSeq++
	if err := body(c.opSeq); err != nil {
		return err
	}
	if c.ins != nil {
		c.ins.observe(op, *algo, time.Since(start).Nanoseconds())
		c.syncPool()
	}
	return nil
}

// sendRaw sends a preassembled payload (already carrying its header) to
// another rank and gives it up: on an owning Comm the receiver recycles it,
// so one payload goes to one rank only. A transport that knows the
// destination is gone (raw in-memory endpoints report ErrUnknownAddr; the
// reliable layer absorbs errors into its resend loop) turns into an
// immediate suspicion instead of a generic send error.
func (c *Comm) sendRaw(to int, op opID, payload []byte) error {
	err := c.d.Send(transport.Message{
		Kind:    transport.KindCollective,
		Dst:     c.addr(to),
		Tag:     opTags[op],
		Payload: payload,
	})
	if err != nil && errors.Is(err, transport.ErrUnknownAddr) {
		c.markDead(to)
		return &RankFailedError{Program: c.program, Rank: to, Op: opTags[op], Seq: c.opSeq}
	}
	return err
}

// frame returns a wire buffer for n body bytes with header h written.
func (c *Comm) frame(h uint64, n int) []byte {
	b := c.pool.Get(hdrLen + n)
	putHdr(b, h)
	return b
}

// sendBytes sends header h followed by body.
func (c *Comm) sendBytes(to int, op opID, h uint64, body []byte) error {
	b := c.frame(h, len(body))
	copy(b[hdrLen:], body)
	return c.sendRaw(to, op, b)
}

// sendFloats sends header h followed by the flat float64 encoding of vals.
func (c *Comm) sendFloats(to int, op opID, h uint64, vals []float64) error {
	b := c.frame(h, wire.Float64sSize(len(vals)))
	wire.AppendFloat64s(b[:hdrLen], vals)
	return c.sendRaw(to, op, b)
}

// recv receives the collective payload with header h from rank from,
// buffering any other collective traffic that arrives first. The returned
// slice includes the header; the caller owns it and recycles it once read.
//
// Failure semantics: a revoked Comm fails immediately with ErrRevoked, as
// does the arrival of a current-epoch revocation frame; a deadline expiry
// (or waiting on an already-suspected rank) yields a RankFailedError naming
// the peer. Frames from older epochs are dropped, frames from future epochs
// — survivors that already shrunk — are parked for the successor Comm.
func (c *Comm) recv(from int, op opID, h uint64) ([]byte, error) {
	if c.revoked {
		return nil, ErrRevoked
	}
	if c.suspects != nil && c.suspects.has(from) {
		return nil, c.failedErr(from, op, h)
	}
	src := c.addr(from)
	tag := opTags[op]
	for i := range c.pending {
		m := &c.pending[i]
		if m.Src == src && m.Tag == tag && matchHdr(m.Payload, h) {
			p := m.Payload
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return p, nil
		}
	}
	for {
		m, err := c.d.RecvDeadline(transport.KindCollective, c.deadline())
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				if c.clk.Since(c.armedAt) < c.timeout {
					continue // stale timer fire; see deadline
				}
				c.suspect(from)
				return nil, c.failedErr(from, op, h)
			}
			return nil, fmt.Errorf("collective: %s waiting for %s op %s seq %d round %d: %w",
				c.addr(c.rank), src, tag, h>>32, uint16(h>>16), err)
		}
		if m.Src == src && m.Tag == tag && matchHdr(m.Payload, h) {
			return m.Payload, nil
		}
		switch d := epochDelta(m.Payload, c.epoch); {
		case m.Tag == tagRevoke:
			if d == 0 {
				c.markRevoked()
				return nil, fmt.Errorf("collective: %s op %s seq %d round %d: %w",
					c.addr(c.rank), tag, h>>32, uint16(h>>16), ErrRevoked)
			}
			if d > 0 {
				c.park(m)
			}
		case d < 0:
			c.ins.incFailure(ctrStaleDropped)
		default:
			c.park(m)
		}
	}
}

// recvInto receives header h from rank from and decodes exactly len(dst)
// floats into dst, recycling the transport buffer.
func (c *Comm) recvInto(from int, op opID, h uint64, dst []float64) error {
	p, err := c.recv(from, op, h)
	if err != nil {
		return err
	}
	if err := wire.DecodeFloat64sInto(p[hdrLen:], dst); err != nil {
		return fmt.Errorf("collective: %s from rank %d: %w", opTags[op], from, err)
	}
	c.pool.Put(p)
	return nil
}

// recvScratch is recvInto targeting the Comm's float scratch; the result is
// valid until the next scratch use, so fold it before receiving again.
func (c *Comm) recvScratch(from int, op opID, h uint64, n int) ([]float64, error) {
	s := c.scratch(n)
	if err := c.recvInto(from, op, h, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Send delivers an application payload to another rank (point-to-point,
// tagged). It is the intra-program messaging used for e.g. halo exchange.
func (c *Comm) Send(to int, tag string, payload []byte) error {
	return c.d.Send(transport.Message{
		Kind:    transport.KindPoint,
		Dst:     c.addr(to),
		Tag:     tag,
		Payload: payload,
	})
}

// Recv receives the application payload with the given tag from the given
// rank, buffering mismatched point-to-point traffic.
func (c *Comm) Recv(from int, tag string) ([]byte, error) {
	src := c.addr(from)
	for i, m := range c.pointPending {
		if m.Src == src && m.Tag == tag {
			c.pointPending = append(c.pointPending[:i], c.pointPending[i+1:]...)
			return m.Payload, nil
		}
	}
	for {
		m, err := c.d.RecvTimeout(transport.KindPoint, c.timeout)
		if err != nil {
			return nil, fmt.Errorf("collective: %s waiting for point msg from %s tag %q: %w",
				c.addr(c.rank), src, tag, err)
		}
		if m.Src == src && m.Tag == tag {
			return m.Payload, nil
		}
		c.pointPending = append(c.pointPending, m)
	}
}

// SendFloats sends a float64 slice point-to-point.
func (c *Comm) SendFloats(to int, tag string, vals []float64) error {
	return c.Send(to, tag, encodeFloats(vals))
}

// RecvFloats receives a float64 slice point-to-point.
func (c *Comm) RecvFloats(from int, tag string) ([]float64, error) {
	b, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return decodeFloats(b)
}
