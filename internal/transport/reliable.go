package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/vclock"
)

// DefaultResendInterval is the retransmission period of a ReliableNetwork
// when the configuration leaves it zero.
const DefaultResendInterval = 25 * time.Millisecond

// ReliableConfig tunes a ReliableNetwork.
type ReliableConfig struct {
	// ResendInterval is how often unacknowledged messages are retransmitted
	// (0 means DefaultResendInterval).
	ResendInterval time.Duration
	// MaxUnacked, when positive, bounds the per-peer resend buffer; Send
	// fails with ErrResendBufferFull once a peer has that many outstanding
	// messages. It turns a permanently dead peer into a visible error instead
	// of unbounded memory growth (the framework's failure detector normally
	// fires long before the bound is hit).
	MaxUnacked int
	// SessionEpoch namespaces this process's sequence numbers: a stamped
	// sequence is epoch<<32 | counter. A restarted process comes back with a
	// larger epoch (the recovery layer increments it per restore), and
	// receivers treat "higher epoch, counter 1" as the start of a fresh
	// session rather than an unfillable gap — that is what lets in-flight
	// ack state survive a crash+rejoin instead of deadlocking both sides.
	SessionEpoch uint32
	// Clock drives the resend ticker and receive timeouts (nil = wall clock).
	Clock vclock.Clock
}

// ErrResendBufferFull is returned by Send when ReliableConfig.MaxUnacked
// messages to one peer are awaiting acknowledgement.
var ErrResendBufferFull = errors.New("transport: reliable resend buffer full (peer not acking)")

// ReliableNetwork layers exactly-once, in-order delivery on top of any
// Network: senders stamp a per-(src,dst) sequence number (reusing
// Message.Seq), keep every message in a resend buffer until the receiver's
// cumulative ack covers it, and retransmit on a timer; receivers deliver
// strictly in sequence order and drop duplicates. Over a FaultNetwork this
// recovers injected drops and resets; over a TCPNetwork with reconnection
// enabled it replays the messages a reset connection lost, so a link flap
// costs latency instead of correctness.
type ReliableNetwork struct {
	inner Network
	cfg   ReliableConfig

	mu     sync.Mutex
	eps    []*reliableEndpoint
	closed bool
}

// NewReliableNetwork wraps inner in the reliable-delivery layer.
func NewReliableNetwork(inner Network, cfg ReliableConfig) *ReliableNetwork {
	if cfg.ResendInterval <= 0 {
		cfg.ResendInterval = DefaultResendInterval
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	return &ReliableNetwork{inner: inner, cfg: cfg}
}

// Register implements Network.
func (n *ReliableNetwork) Register(addr Addr) (Endpoint, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.mu.Unlock()
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	re := &reliableEndpoint{
		mailbox:   newMailbox(DefaultMailboxDepth, n.cfg.Clock),
		net:       n,
		inner:     ep,
		nextSeq:   make(map[Addr]uint64),
		unacked:   make(map[Addr][]Message),
		peerEpoch: make(map[string]uint32),
		delivered: make(map[Addr]uint64),
	}
	go re.recvLoop()
	go re.resendLoop()
	n.mu.Lock()
	n.eps = append(n.eps, re)
	n.mu.Unlock()
	return re, nil
}

// Unwrap returns the wrapped Network (observability walks the layer stack).
func (n *ReliableNetwork) Unwrap() Network { return n.inner }

// ResetPeer drops the sender-side reliable state every endpoint of this
// network holds toward program's addresses and starts the next session to
// them at the given epoch. The recovery layer calls it when a peer program
// rejoins after a crash: unacked messages of the dead session are discarded
// (the rejoin handshake regenerates whatever still matters), and subsequent
// sends open a fresh epoch the restarted receiver accepts from counter 1.
// Receiver-side delivery watermarks are kept — stale frames of the dead
// session keep being deduplicated, and the peer's new epoch is admitted by
// the higher-epoch rule.
func (n *ReliableNetwork) ResetPeer(program string, epoch uint32) {
	n.mu.Lock()
	eps := make([]*reliableEndpoint, len(n.eps))
	copy(eps, n.eps)
	n.mu.Unlock()
	for _, e := range eps {
		e.resetPeer(program, epoch)
	}
}

// Close implements Network.
func (n *ReliableNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	eps := n.eps
	n.eps = nil
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return n.inner.Close()
}

// reliableEndpoint is one address's attachment to a ReliableNetwork.
type reliableEndpoint struct {
	mailbox
	net   *ReliableNetwork
	inner Endpoint

	// Sender side: next sequence number and resend buffer per destination,
	// plus the per-peer-program session epoch a ResetPeer installed (the
	// configured SessionEpoch when absent).
	smu       sync.Mutex
	nextSeq   map[Addr]uint64
	unacked   map[Addr][]Message // ascending Seq
	peerEpoch map[string]uint32

	// Receiver side: highest in-order sequence delivered per source.
	rmu       sync.Mutex
	delivered map[Addr]uint64
}

func (e *reliableEndpoint) Addr() Addr { return e.inner.Addr() }

// Frames is nil: a sent payload stays in the sender's resend buffer until
// acked, and over MemNetwork that is the array the receiver was given.
func (e *reliableEndpoint) Frames() *buffer.Frames { return nil }

// Send stamps the pair sequence number, records the message for
// retransmission, and attempts immediate delivery. Transient transport
// errors (an unregistered peer, a connection mid-reconnect) are absorbed:
// the resend loop retries until the receiver acks or the endpoint closes.
func (e *reliableEndpoint) Send(msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	msg.Src = e.inner.Addr()
	e.smu.Lock()
	if max := e.net.cfg.MaxUnacked; max > 0 && len(e.unacked[msg.Dst]) >= max {
		e.smu.Unlock()
		return fmt.Errorf("transport: %d messages to %s unacked: %w",
			e.net.cfg.MaxUnacked, msg.Dst, ErrResendBufferFull)
	}
	next, open := e.nextSeq[msg.Dst]
	if !open {
		// First message of a session to this peer: base the counter on the
		// session epoch (ours, or the one the peer's rejoin installed).
		epoch, ok := e.peerEpoch[msg.Dst.Program]
		if !ok {
			epoch = e.net.cfg.SessionEpoch
		}
		next = uint64(epoch) << 32
	}
	next++
	e.nextSeq[msg.Dst] = next
	msg.Seq = next
	e.unacked[msg.Dst] = append(e.unacked[msg.Dst], msg)
	e.smu.Unlock()
	if err := e.inner.Send(msg); err != nil && errors.Is(err, ErrClosed) {
		return err
	}
	return nil
}

// recvLoop pumps the inner endpoint: acks shrink the resend buffer, data
// messages are delivered exactly once in sequence order (gaps wait for
// retransmission, duplicates are re-acked and dropped).
func (e *reliableEndpoint) recvLoop() {
	for {
		m, err := e.inner.Recv()
		if err != nil {
			e.shut(err)
			return
		}
		if m.Kind == KindAck {
			e.handleAck(m)
			continue
		}
		if m.Seq == 0 {
			// Unsequenced traffic from a sender outside the reliable layer:
			// pass through untouched.
			if !e.put(m) {
				return
			}
			continue
		}
		e.rmu.Lock()
		last := e.delivered[m.Src]
		switch {
		case m.Seq == last+1:
			e.delivered[m.Src] = m.Seq
			e.rmu.Unlock()
			e.sendAck(m.Src, m.Seq)
			if !e.put(m) {
				return
			}
		case m.Seq>>32 > last>>32 && m.Seq&0xffffffff == 1:
			// First message of a higher session epoch: the peer restarted (or
			// our state toward it was reset) and opened a fresh stream. Accept
			// it as the new baseline instead of treating the epoch bump as a
			// gap that old-session retransmits could never fill.
			e.delivered[m.Src] = m.Seq
			e.rmu.Unlock()
			e.sendAck(m.Src, m.Seq)
			if !e.put(m) {
				return
			}
		case m.Seq <= last:
			// Duplicate (a retransmit that raced our ack): re-ack so the
			// sender can clear its buffer, and drop.
			e.rmu.Unlock()
			e.sendAck(m.Src, last)
		default:
			// Gap: an earlier message of this pair is still missing. Drop;
			// the sender retransmits in order, so the stream resumes from
			// the first hole without reordering.
			e.rmu.Unlock()
		}
	}
}

// sendAck reports the highest in-order sequence received from dst, carried
// in the Seq field itself (cumulative, idempotent, safe to lose).
func (e *reliableEndpoint) sendAck(dst Addr, seq uint64) {
	_ = e.inner.Send(Message{Kind: KindAck, Dst: dst, Tag: "ack", Seq: seq})
}

// handleAck drops every buffered message the cumulative ack covers.
func (e *reliableEndpoint) handleAck(m Message) {
	e.smu.Lock()
	q := e.unacked[m.Src]
	i := 0
	for i < len(q) && q[i].Seq <= m.Seq {
		i++
	}
	if i > 0 {
		e.unacked[m.Src] = append(q[:0:0], q[i:]...)
	}
	e.smu.Unlock()
}

// resendLoop retransmits every unacknowledged message each interval, oldest
// first, preserving per-pair order. Receiver-side dedup makes spurious
// retransmits harmless.
func (e *reliableEndpoint) resendLoop() {
	t := e.net.cfg.Clock.NewTicker(e.net.cfg.ResendInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C():
		case <-e.done:
			return
		}
		e.smu.Lock()
		var pending []Message
		for _, q := range e.unacked {
			pending = append(pending, q...)
		}
		e.smu.Unlock()
		for _, m := range pending {
			_ = e.inner.Send(m) // transient failures retry next tick
		}
	}
}

// resetPeer implements ReliableNetwork.ResetPeer for one endpoint.
func (e *reliableEndpoint) resetPeer(program string, epoch uint32) {
	e.smu.Lock()
	e.peerEpoch[program] = epoch
	for dst := range e.nextSeq {
		if dst.Program == program {
			delete(e.nextSeq, dst)
		}
	}
	for dst := range e.unacked {
		if dst.Program == program {
			delete(e.unacked, dst)
		}
	}
	e.smu.Unlock()
}

// Unacked returns the number of messages awaiting acknowledgement across all
// peers (tests and diagnostics).
func (e *reliableEndpoint) Unacked() int {
	e.smu.Lock()
	defer e.smu.Unlock()
	n := 0
	for _, q := range e.unacked {
		n += len(q)
	}
	return n
}

func (e *reliableEndpoint) Close() error { return e.shut(nil) }

// shut is Close with the error that stopped recvLoop, for Recv to report.
func (e *reliableEndpoint) shut(err error) error {
	e.fail(err)
	return e.inner.Close()
}
