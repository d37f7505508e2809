package transport

import (
	"errors"
	"sync"
	"time"

	"repro/internal/vclock"
)

// mailbox is the receive side of every endpoint that queues its own
// deliveries (mem, tcp, reliable, coalescing embed one): a bounded channel
// the delivering goroutine puts into, the done channel that closes it, and
// the error it closed with. It implements Endpoint's Recv and RecvTimeout
// with the close rule stated on Endpoint.Close.
type mailbox struct {
	box   chan Message
	done  chan struct{}
	clock vclock.Clock // receive deadlines

	once sync.Once
	err  error // set before done closes, read only after
}

func newMailbox(depth int, clock vclock.Clock) mailbox {
	return mailbox{box: make(chan Message, depth), done: make(chan struct{}), clock: vclock.Or(clock)}
}

// put queues m, blocking while the box is full; false means the mailbox
// closed first.
func (b *mailbox) put(m Message) bool {
	select {
	case b.box <- m:
		return true
	case <-b.done:
		return false
	}
}

// fail closes the mailbox and reports whether this call was the one that did.
// A receive loop passes the error that stopped it, which Recv then reports in
// place of ErrClosed; a deliberate Close passes nil.
func (b *mailbox) fail(err error) (first bool) {
	b.once.Do(func() {
		if !errors.Is(err, ErrClosed) {
			b.err = err
		}
		close(b.done)
		first = true
	})
	return first
}

// isClosed reports whether fail has run (the Send-side check).
func (b *mailbox) isClosed() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

func (b *mailbox) Recv() (Message, error) {
	select {
	case m := <-b.box:
		return m, nil
	case <-b.done:
		return b.drain()
	}
}

func (b *mailbox) RecvTimeout(d time.Duration) (Message, error) {
	t := b.clock.NewTimer(d)
	defer t.Stop()
	select {
	case m := <-b.box:
		return m, nil
	case <-b.done:
		return b.drain()
	case <-t.C():
		return Message{}, ErrTimeout
	}
}

// drain is a receive on a closed mailbox: what was queued first, then the
// error.
func (b *mailbox) drain() (Message, error) {
	select {
	case m := <-b.box:
		return m, nil
	default:
	}
	if b.err != nil {
		return Message{}, b.err
	}
	return Message{}, ErrClosed
}
