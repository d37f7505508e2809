package transport

import (
	"errors"
	"fmt"
	"time"
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

// Network hands out endpoints for addresses and routes messages between them.
type Network interface {
	// Register claims addr and returns its endpoint. Each address may be
	// registered at most once per network.
	Register(addr Addr) (Endpoint, error)
	// Close shuts the network down; all endpoints become closed.
	Close() error
}

// Endpoint is one process's (or rep's) attachment to the network.
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
	// Close detaches the endpoint. Pending and future Recv calls return
	// ErrClosed; messages already queued are discarded.
	Close() error
}

// Unwrapper is implemented by layered networks (reliable, coalescing, fault,
// latency) that wrap another Network, so diagnostics can walk the stack down
// to the base transport.
type Unwrapper interface {
	Unwrap() Network
}

// seqKey identifies a directed sender->receiver pair for FIFO sequence
// numbering.
type seqKey struct {
	src, dst Addr
}

func routeString(m Message) string {
	return fmt.Sprintf("%s->%s kind=%s tag=%q", m.Src, m.Dst, m.Kind, m.Tag)
}
