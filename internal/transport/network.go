package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/buffer"
)

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed endpoint or network:
	// the caller's own, never the destination's.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownAddr is returned when sending to an address nobody holds:
	// never registered, or closed before the message was handed over.
	ErrUnknownAddr = errors.New("transport: unknown address")
	// ErrDuplicateAddr is returned when registering an address twice.
	ErrDuplicateAddr = errors.New("transport: address already registered")
	// ErrTimeout is returned by RecvTimeout when the deadline expires.
	ErrTimeout = errors.New("transport: receive timeout")
)

// The stack. Layers compose in one legal order, bottom to top:
//
//	backend (MemNetwork | TCPNetwork) → FaultNetwork → CoalescingNetwork →
//	ReliableNetwork → Dispatcher
//
// Every layer but the backend and the Dispatcher is optional. The injector
// sits on the backend because it plays the wire; coalescing sits under the
// reliable layer so sequence numbers ride inside batch items and acks get
// batched too; the Dispatcher is per endpoint and always outermost. The
// caller composes the stack (cmd/coupled, the harness, dst) and hands it to
// core as Options.Network; core never adds a layer, it only walks the one it
// was given (FindLayer).

// Network hands out endpoints for addresses and routes messages between them.
type Network interface {
	// Register claims addr and returns its endpoint. Each address may be
	// registered at most once per network.
	Register(addr Addr) (Endpoint, error)
	// Close shuts the network down; all endpoints become closed.
	Close() error
}

// Endpoint is one process's (or rep's) attachment to the network.
//
// Payload ownership. A sender gives msg.Payload up at Send and never reads
// or writes it again. What the receiver may do with a delivered payload is
// the endpoint's to state (Frames): where it has a frame pool the bytes are
// referenced by the receiver alone, so it may overwrite them, send them on
// as its own, or hand them back; on any other it may only read them.
type Endpoint interface {
	// Addr returns the address this endpoint was registered under.
	Addr() Addr
	// Send delivers msg to msg.Dst. Delivery between a fixed (src, dst) pair
	// is FIFO. Send stamps msg.Src and msg.Seq.
	Send(msg Message) error
	// Recv blocks until a message arrives or the endpoint closes.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout on expiry.
	RecvTimeout(d time.Duration) (Message, error)
	// Frames returns the network's frame pool, or nil. Non-nil means every
	// payload Recv returns is held by nothing but the returned message: the
	// network keeps no reference to it (no retransmit buffer, no delayed
	// duplicate), delivers it to no second endpoint, and it shares its array
	// with no other delivery. The two backends have one pool per network
	// object — MemNetwork passes the sender's slice to exactly one mailbox,
	// TCP copies each payload out of its read buffer (into a pooled frame for
	// KindData, whose receiver hands it back) — and every decorator returns
	// nil: ReliableNetwork retains sent payloads until acked,
	// CoalescingNetwork delivers windows of one envelope, and the injectors
	// (FaultNetwork, the DST networks) promise nothing. A wrapper that only
	// observes traffic passes its inner endpoint's answer through. A sender
	// may draw a payload from the pool and mark it Message.Pooled: TCP puts
	// it back after its write, MemNetwork hands it to the receiver. Neither
	// can tell it from a payload a layer above keeps for resend, so the mark
	// decides, and callers above a decorator, seeing nil, never set it.
	Frames() *buffer.Frames
	// Close detaches the endpoint: it accepts no further message, and Send
	// returns ErrClosed. Messages queued before the close are still handed
	// out, in order, by Recv and RecvTimeout alike; once the queue is empty
	// both return ErrClosed — or, when the endpoint was closed by a failure
	// of its own receive loop rather than by this call, the error that
	// stopped the loop. Close is idempotent and unblocks a parked Recv.
	Close() error
}

// Unwrapper is implemented by layered networks (reliable, coalescing, fault)
// that wrap another Network, so diagnostics can walk the stack down to the
// base transport.
type Unwrapper interface {
	Unwrap() Network
}

// FindLayer walks n's Unwrap chain from the top and returns the first layer
// of type T, or T's zero value (nil for the pointer types layers are) when
// the stack has none.
func FindLayer[T Network](n Network) T {
	for n != nil {
		if t, ok := n.(T); ok {
			return t
		}
		u, ok := n.(Unwrapper)
		if !ok {
			break
		}
		n = u.Unwrap()
	}
	var none T
	return none
}

// seqKey identifies a directed sender->receiver pair for FIFO sequence
// numbering.
type seqKey struct {
	src, dst Addr
}

func routeString(m Message) string {
	return fmt.Sprintf("%s->%s kind=%s tag=%q", m.Src, m.Dst, m.Kind, m.Tag)
}
