package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Coalescing defaults: a pending batch is flushed when it reaches
// DefaultCoalesceBytes of encoded payload or DefaultCoalesceMsgs messages,
// or when the flush ticker fires (DefaultFlushInterval), whichever comes
// first. The deadline keeps the added latency of an underfull batch bounded
// and small next to the framework's own round-trip times. Messages whose
// payload exceeds DefaultCoalesceItemBytes (bulk data pieces) bypass the
// batching entirely — they are each worth a frame on their own, and copying
// them into a batch buffer would tax the hot export path.
const (
	DefaultCoalesceBytes     = 8 << 10
	DefaultCoalesceMsgs      = 32
	DefaultCoalesceItemBytes = 1 << 10
	DefaultFlushInterval     = 200 * time.Microsecond
	coalesceMailboxSlack     = 4 // extra mailbox room for unbatched fan-out
)

// CoalesceConfig tunes a CoalescingNetwork.
type CoalesceConfig struct {
	// MaxBytes flushes a program's batch when its encoded payload reaches
	// this many bytes (0 means DefaultCoalesceBytes).
	MaxBytes int
	// MaxMsgs flushes a program's batch at this many pending messages
	// (0 means DefaultCoalesceMsgs).
	MaxMsgs int
	// MaxItemBytes is the largest payload that rides in a batch; bigger
	// messages pass straight through as their own frame (0 means
	// DefaultCoalesceItemBytes).
	MaxItemBytes int
	// FlushInterval bounds how long a pending message waits for company
	// (0 means DefaultFlushInterval).
	FlushInterval time.Duration
	// Clock drives the flush ticker and receive timeouts (nil = wall clock).
	Clock vclock.Clock
}

// FrameStats counts the traffic a CoalescingNetwork handed to its inner
// network. Messages is the logical message count; Frames is what actually
// hit the wire (Frames << Messages is the point of the layer).
type FrameStats struct {
	// Messages counts logical messages accepted by Send.
	Messages int64
	// Frames counts inner Send calls (passthrough messages + batch envelopes).
	Frames int64
	// Batches counts batch envelopes among Frames; Batched counts the
	// messages that traveled inside them.
	Batches, Batched int64
	// PayloadBytes totals payload bytes handed to the inner network
	// (envelope payloads count once; sub-message framing is included).
	PayloadBytes int64
	// DecodeErrors counts batch envelopes whose payload failed to decode
	// (protocol corruption; the receiving endpoint is failed).
	DecodeErrors int64
}

// CoalescingNetwork batches small messages into one frame per destination
// program per flush window — the message-combining optimization for the
// sparse repetitive control traffic of the match protocol (import calls,
// request fan-out, responses, answers, buddy-help) and the reliable layer's
// acks.
//
// The batch is shared by every endpoint registered on this network (one
// CoalescingNetwork per OS process; its endpoints share the process's link
// to the world) and is keyed by destination program, because a program's
// endpoints are colocated: its representative is the control gateway the
// batch envelope is addressed to, and the receiving CoalescingNetwork
// dispatches the fully addressed items to its local endpoints. This is
// where the collective-operation semantics pay off — a representative's
// fan-out to its processes, the processes' responses converging on their
// rep, and the importer ranks' simultaneous collective calls all become one
// frame each. Receivers see the original messages, unbatched inside Recv.
//
// Ordering: batched messages keep per-(src,dst) FIFO order (one shared
// batch per destination program, dispatched by one goroutine), and so do
// passthrough messages; the two classes may overtake each other. The
// framework never mixes the classes on one pair (bulk data and control
// travel on disjoint pairs), and a ReliableNetwork stacked on top restores
// total per-pair order by sequence number.
//
// Composability: stack it UNDER a ReliableNetwork
// (NewReliableNetwork(NewCoalescingNetwork(base, cfg), rcfg)) so the
// reliable layer's sequence numbers ride inside batch items and its acks
// get batched too.
type CoalescingNetwork struct {
	inner Network
	cfg   CoalesceConfig

	messages, frames, batches, batched, payloadBytes atomic.Int64
	decodeErrors                                     atomic.Int64

	mu      sync.Mutex
	eps     map[Addr]*coalescingEndpoint
	closed  bool
	started bool
	done    chan struct{}

	// bmu guards the shared send side: the per-program pending batches and
	// the per-pair sequence counters. It is held across inner.Send so a
	// flush and the passthrough message that forced it stay in order.
	bmu     sync.Mutex
	pending map[string]*pendingBatch
	nextSeq map[[2]Addr]uint64
}

// NewCoalescingNetwork wraps inner in the message-coalescing layer.
func NewCoalescingNetwork(inner Network, cfg CoalesceConfig) *CoalescingNetwork {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultCoalesceBytes
	}
	if cfg.MaxMsgs <= 0 {
		cfg.MaxMsgs = DefaultCoalesceMsgs
	}
	if cfg.MaxItemBytes <= 0 {
		cfg.MaxItemBytes = DefaultCoalesceItemBytes
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	return &CoalescingNetwork{
		inner:   inner,
		cfg:     cfg,
		eps:     make(map[Addr]*coalescingEndpoint),
		done:    make(chan struct{}),
		pending: make(map[string]*pendingBatch),
		nextSeq: make(map[[2]Addr]uint64),
	}
}

// Stats returns a snapshot of the frame counters, aggregated over all
// endpoints of this network.
func (n *CoalescingNetwork) Stats() FrameStats {
	return FrameStats{
		Messages:     n.messages.Load(),
		Frames:       n.frames.Load(),
		Batches:      n.batches.Load(),
		Batched:      n.batched.Load(),
		PayloadBytes: n.payloadBytes.Load(),
		DecodeErrors: n.decodeErrors.Load(),
	}
}

// Register implements Network.
func (n *CoalescingNetwork) Register(addr Addr) (Endpoint, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	startFlusher := !n.started
	n.started = true
	n.mu.Unlock()
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	ce := &coalescingEndpoint{
		mailbox: newMailbox(DefaultMailboxDepth+coalesceMailboxSlack, n.cfg.Clock),
		net:     n,
		inner:   ep,
		intern:  wire.NewInterner(),
	}
	go ce.recvLoop()
	if startFlusher {
		go n.flushLoop()
	}
	n.mu.Lock()
	n.eps[addr] = ce
	n.mu.Unlock()
	return ce, nil
}

// Unwrap returns the wrapped Network (observability walks the layer stack).
func (n *CoalescingNetwork) Unwrap() Network { return n.inner }

// Close implements Network.
func (n *CoalescingNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := n.eps
	n.eps = make(map[Addr]*coalescingEndpoint)
	close(n.done)
	n.mu.Unlock()
	n.bmu.Lock()
	_ = n.flushAllLocked()
	n.bmu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return n.inner.Close()
}

// endpoint looks up a locally registered endpoint.
func (n *CoalescingNetwork) endpoint(addr Addr) *coalescingEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[addr]
}

// anyEndpoint returns some live endpoint (fallback frame sender).
func (n *CoalescingNetwork) anyEndpoint() *coalescingEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		return ep
	}
	return nil
}

// pendingBatch accumulates encoded batch items bound for one program.
type pendingBatch struct {
	buf []byte
	n   int
	// firstSrc/firstDst address the oldest pending item: the flush is sent
	// through firstSrc's inner endpoint, and firstDst is the fallback
	// envelope destination when the program has no representative.
	firstSrc, firstDst Addr
}

// send is the shared send path behind every endpoint's Send.
func (n *CoalescingNetwork) send(e *coalescingEndpoint, msg Message) error {
	msg.Src = e.inner.Addr()
	n.bmu.Lock()
	defer n.bmu.Unlock()
	// One per-pair counter covers batched and passthrough messages alike, so
	// sequence numbers stay monotonic across the two paths. Nonzero Seq (the
	// reliable layer's numbering) is preserved, as everywhere else.
	if msg.Seq == 0 {
		k := [2]Addr{msg.Src, msg.Dst}
		n.nextSeq[k]++
		msg.Seq = n.nextSeq[k]
	}
	n.messages.Add(1)
	if msg.Kind == KindBatch || len(msg.Payload) > n.cfg.MaxItemBytes {
		if err := n.flushProgLocked(msg.Dst.Program); err != nil {
			return err
		}
		n.frames.Add(1)
		n.payloadBytes.Add(int64(len(msg.Payload)))
		return e.inner.Send(msg)
	}
	p := n.pending[msg.Dst.Program]
	if p == nil {
		p = &pendingBatch{}
		n.pending[msg.Dst.Program] = p
	}
	if p.n == 0 {
		p.firstSrc, p.firstDst = msg.Src, msg.Dst
	}
	if p.buf == nil {
		p.buf = make([]byte, 0, n.cfg.MaxBytes+n.cfg.MaxItemBytes+256)
	}
	p.buf = AppendBatchItem(p.buf, msg)
	p.n++
	n.batched.Add(1)
	if p.n >= n.cfg.MaxMsgs || len(p.buf) >= n.cfg.MaxBytes {
		return n.flushProgLocked(msg.Dst.Program)
	}
	return nil
}

// flushProgLocked sends the program's pending batch, if any. The envelope is
// addressed to the program's representative — the control gateway every
// program of the framework registers, colocated with the program's process
// endpoints — whose CoalescingNetwork dispatches the items. When no rep
// exists (bare point-to-point topologies), the oldest item's destination
// serves as the gateway instead. The buffer is handed off to the envelope
// (receivers alias into it), so a fresh one is lazily allocated on the next
// batched send — one allocation per frame.
func (n *CoalescingNetwork) flushProgLocked(prog string) error {
	p := n.pending[prog]
	if p == nil || p.n == 0 {
		return nil
	}
	buf := p.buf
	p.buf, p.n = nil, 0
	sender := n.endpoint(p.firstSrc)
	if sender == nil {
		if sender = n.anyEndpoint(); sender == nil {
			return ErrClosed
		}
	}
	n.frames.Add(1)
	n.batches.Add(1)
	n.payloadBytes.Add(int64(len(buf)))
	env := Message{Kind: KindBatch, Src: sender.inner.Addr(), Dst: Rep(prog), Tag: "batch", Payload: buf}
	err := sender.inner.Send(env)
	if errors.Is(err, ErrUnknownAddr) && !p.firstDst.IsRep() {
		env.Dst = p.firstDst
		err = sender.inner.Send(env)
	}
	return err
}

// flushAllLocked flushes every program (deadline ticks and close).
func (n *CoalescingNetwork) flushAllLocked() error {
	var first error
	for prog, p := range n.pending {
		if p.n == 0 {
			continue
		}
		if err := n.flushProgLocked(prog); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushLoop is the deadline trigger: every FlushInterval it flushes all
// pending batches, bounding the wait of an underfull batch.
func (n *CoalescingNetwork) flushLoop() {
	t := n.cfg.Clock.NewTicker(n.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C():
		case <-n.done:
			return
		}
		n.bmu.Lock()
		_ = n.flushAllLocked() // send errors resurface on the next explicit Send
		n.bmu.Unlock()
	}
}

// dispatch routes an unbatched item to its destination endpoint's mailbox.
// Items for endpoints that are not (or are no longer) registered here are
// dropped, like any send to an unknown address.
func (n *CoalescingNetwork) dispatch(m Message) {
	if target := n.endpoint(m.Dst); target != nil {
		target.put(m)
	}
}

// coalescingEndpoint is one address's attachment to a CoalescingNetwork.
type coalescingEndpoint struct {
	mailbox
	net   *CoalescingNetwork
	inner Endpoint

	// intern is used only by recvLoop (single goroutine).
	intern *wire.Interner
}

func (e *coalescingEndpoint) Addr() Addr { return e.inner.Addr() }

// Frames is nil: the items of one batch are windows of the same envelope
// payload, delivered to different endpoints.
func (e *coalescingEndpoint) Frames() *buffer.Frames { return nil }

// Send implements Endpoint: small messages join the shared per-program
// batch, bulk ones flush it and pass through.
func (e *coalescingEndpoint) Send(msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	return e.net.send(e, msg)
}

// recvLoop pumps the inner endpoint. Batch envelopes (addressed to this
// endpoint as the program's gateway) are opened and their items dispatched
// to the destination endpoints' mailboxes; everything else lands in this
// endpoint's own mailbox. Sub-message payloads alias the envelope payload —
// safe, because the flushing side handed the buffer off and never touches
// it again.
func (e *coalescingEndpoint) recvLoop() {
	for {
		m, err := e.inner.Recv()
		if err != nil {
			e.shut(err)
			return
		}
		if m.Kind != KindBatch {
			if !e.put(m) {
				return
			}
			continue
		}
		err = decodeBatch(m, e.intern, func(sub Message) error {
			if e.isClosed() {
				return ErrClosed
			}
			e.net.dispatch(sub)
			return nil
		})
		if err != nil {
			// A malformed batch is protocol corruption; count it and fail the
			// endpoint loudly rather than delivering a partial prefix silently.
			e.net.decodeErrors.Add(1)
			e.shut(err)
			return
		}
	}
}

// Close flushes the shared pending batches and detaches the endpoint.
func (e *coalescingEndpoint) Close() error { return e.shut(nil) }

// shut is Close with the error that stopped recvLoop, for Recv to report.
func (e *coalescingEndpoint) shut(err error) error {
	if e.fail(err) {
		e.net.bmu.Lock()
		_ = e.net.flushAllLocked()
		e.net.bmu.Unlock()
		e.net.mu.Lock()
		if e.net.eps[e.inner.Addr()] == e {
			delete(e.net.eps, e.inner.Addr())
		}
		e.net.mu.Unlock()
	}
	return e.inner.Close()
}
