package transport

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/vclock"
)

// DefaultMailboxDepth is the buffered-channel depth of each in-memory
// mailbox. It is deep enough that control traffic never blocks senders in the
// workloads this repo runs; data-plane backpressure is handled above the
// transport.
const DefaultMailboxDepth = 1024

// MemNetwork routes messages through buffered channels inside one OS process.
// It is the default substrate: a "cluster" of goroutine processes.
type MemNetwork struct {
	// Clock drives receive timeouts (nil = wall clock). Set before Register.
	Clock vclock.Clock

	mu     sync.RWMutex
	boxes  map[Addr]*memEndpoint
	seq    map[seqKey]uint64
	depth  int
	closed bool

	frames buffer.Frames // every endpoint's Frames
}

// NewMemNetwork returns an empty in-memory network with DefaultMailboxDepth
// mailboxes.
func NewMemNetwork() *MemNetwork { return NewMemNetworkDepth(DefaultMailboxDepth) }

// NewMemNetworkDepth returns an in-memory network whose mailboxes buffer
// depth messages before senders block.
func NewMemNetworkDepth(depth int) *MemNetwork {
	if depth < 1 {
		depth = 1
	}
	return &MemNetwork{
		boxes: make(map[Addr]*memEndpoint),
		seq:   make(map[seqKey]uint64),
		depth: depth,
	}
}

// Register claims addr and returns its endpoint.
func (n *MemNetwork) Register(addr Addr) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.boxes[addr]; dup {
		return nil, ErrDuplicateAddr
	}
	ep := &memEndpoint{mailbox: newMailbox(n.depth, n.Clock), net: n, addr: addr}
	n.boxes[addr] = ep
	return ep, nil
}

// Close shuts down the network and every endpoint registered on it.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.boxes))
	for _, ep := range n.boxes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// deliver routes msg to its destination mailbox, blocking if the mailbox is
// full (providing natural backpressure, like a rendezvous send). A
// destination that closes between the lookup and the hand-off is reported
// like one that closed before it: ErrUnknownAddr. ErrClosed means the
// sender's own endpoint is closed, and callers tell a dying peer from their
// own shutdown by that difference.
func (n *MemNetwork) deliver(msg Message) error {
	n.mu.RLock()
	dst, ok := n.boxes[msg.Dst]
	n.mu.RUnlock()
	if !ok {
		return ErrUnknownAddr
	}
	if !dst.put(msg) {
		return ErrUnknownAddr
	}
	return nil
}

func (n *MemNetwork) nextSeq(k seqKey) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq[k]++
	return n.seq[k]
}

func (n *MemNetwork) unregister(addr Addr) {
	n.mu.Lock()
	delete(n.boxes, addr)
	n.mu.Unlock()
}

type memEndpoint struct {
	mailbox
	net  *MemNetwork
	addr Addr
}

func (e *memEndpoint) Addr() Addr { return e.addr }

// Frames is the network's pool: deliver puts the sender's slice, mark and
// all, in one mailbox and the network keeps nothing.
func (e *memEndpoint) Frames() *buffer.Frames { return &e.net.frames }

func (e *memEndpoint) Send(msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	msg.Src = e.addr
	if msg.Seq == 0 {
		msg.Seq = e.net.nextSeq(seqKey{src: e.addr, dst: msg.Dst})
	}
	return e.net.deliver(msg)
}

func (e *memEndpoint) Close() error {
	if e.fail(nil) {
		e.net.unregister(e.addr)
	}
	return nil
}
