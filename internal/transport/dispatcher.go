package transport

import (
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/vclock"
)

// Dispatcher owns an endpoint's receive loop and fans messages out to
// per-kind queues, so independent protocol layers (collective operations,
// framework control, bulk data) can share one endpoint without stealing each
// other's messages — the role MPI tags/communicators play in the paper's
// substrate.
//
// Queues are unbounded: the dispatcher never blocks on a slow consumer, so a
// process busy in a long compute phase cannot stall its peers' sends (the
// paper's framework likewise decouples request handling from the application
// loop).
//
// A consumer that handles every kind in one loop (a representative) builds
// the dispatcher with NewMergedDispatcher instead: all kinds share one queue,
// read with RecvAny, so two kinds sent by one peer arrive in send order.
type Dispatcher struct {
	ep    Endpoint
	clock vclock.Clock

	// merged is the one queue of a merged dispatcher (nil otherwise); fixed
	// at construction, before the receive loop routes anything.
	merged *queue

	mu     sync.Mutex
	queues map[Kind]*queue
	err    error
	closed bool
}

// queue is an unbounded FIFO with blocking receive. The backing store is a
// ring buffer rather than an append/reslice slice: a steady-state
// producer/consumer pair reuses the same array forever instead of leaking
// capacity off the front and reallocating on every wrap, which keeps the
// collective hot path allocation-free.
type queue struct {
	mu     sync.Mutex
	buf    []Message
	head   int           // index of the oldest message
	n      int           // live messages
	signal chan struct{} // capacity 1; poked on push and on close
	closed bool
}

func newQueue() *queue {
	return &queue{signal: make(chan struct{}, 1)}
}

func (q *queue) push(m Message) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		grown := make([]Message, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
	q.mu.Unlock()
	q.poke()
}

func (q *queue) poke() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.poke()
}

// pop removes the head message, blocking until one is available, the queue
// closes (ErrClosed), or the deadline passes (ErrTimeout; zero deadline means
// no deadline).
func (q *queue) pop(deadline <-chan time.Time) (Message, error) {
	for {
		q.mu.Lock()
		if q.n > 0 {
			m := q.buf[q.head]
			q.buf[q.head] = Message{} // drop payload reference for the GC
			q.head = (q.head + 1) % len(q.buf)
			q.n--
			again := q.n > 0
			q.mu.Unlock()
			if again {
				// More waiting: re-poke for other blocked receivers.
				// (Not a defer: a defer inside a loop heap-allocates its
				// record, which would put one malloc on every hot-path pop.)
				q.poke()
			}
			return m, nil
		}
		if q.closed {
			q.mu.Unlock()
			return Message{}, ErrClosed
		}
		q.mu.Unlock()
		select {
		case <-q.signal:
		case <-deadline:
			return Message{}, ErrTimeout
		}
	}
}

// NewDispatcher wraps ep and starts its receive loop.
func NewDispatcher(ep Endpoint) *Dispatcher { return NewDispatcherClock(ep, nil) }

// NewDispatcherClock is NewDispatcher with an injected clock for receive
// deadlines (nil = wall clock).
func NewDispatcherClock(ep Endpoint, clock vclock.Clock) *Dispatcher {
	return startDispatcher(ep, clock, nil)
}

// NewMergedDispatcher is NewDispatcherClock with one queue for every kind:
// RecvAny returns messages in arrival order, and the per-kind receives all
// read that same queue.
func NewMergedDispatcher(ep Endpoint, clock vclock.Clock) *Dispatcher {
	return startDispatcher(ep, clock, newQueue())
}

func startDispatcher(ep Endpoint, clock vclock.Clock, merged *queue) *Dispatcher {
	d := &Dispatcher{ep: ep, clock: vclock.Or(clock), merged: merged, queues: make(map[Kind]*queue)}
	go d.run()
	return d
}

// RecvAny receives the next message of any kind from a merged dispatcher,
// blocking until one arrives or the dispatcher stops (returning ErrClosed).
func (d *Dispatcher) RecvAny() (Message, error) { return d.merged.pop(nil) }

// Endpoint returns the wrapped endpoint (for Send; callers must not Recv on
// it directly once a Dispatcher owns it).
func (d *Dispatcher) Endpoint() Endpoint { return d.ep }

// Addr returns the wrapped endpoint's address.
func (d *Dispatcher) Addr() Addr { return d.ep.Addr() }

// Send forwards to the underlying endpoint.
func (d *Dispatcher) Send(msg Message) error { return d.ep.Send(msg) }

// Frames passes the endpoint's answer up: the queues hold a message until
// one receiver pops it and keep nothing after.
func (d *Dispatcher) Frames() *buffer.Frames { return d.ep.Frames() }

func (d *Dispatcher) queue(kind Kind) *queue {
	if d.merged != nil {
		return d.merged
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	q, ok := d.queues[kind]
	if !ok {
		q = newQueue()
		if d.closed {
			q.closed = true
		}
		d.queues[kind] = q
	}
	return q
}

// Recv receives the next message of kind, blocking until one arrives or the
// dispatcher stops (returning ErrClosed).
func (d *Dispatcher) Recv(kind Kind) (Message, error) {
	return d.queue(kind).pop(nil)
}

// RecvTimeout is Recv with a deadline.
func (d *Dispatcher) RecvTimeout(kind Kind, timeout time.Duration) (Message, error) {
	t := d.clock.NewTimer(timeout)
	defer t.Stop()
	return d.queue(kind).pop(t.C())
}

// RecvDeadline is Recv against a caller-owned deadline channel (typically a
// reused timer's C()), so hot paths can avoid allocating a timer per receive.
// A nil deadline blocks indefinitely.
func (d *Dispatcher) RecvDeadline(kind Kind, deadline <-chan time.Time) (Message, error) {
	return d.queue(kind).pop(deadline)
}

// Clock returns the clock receive deadlines are measured on, so callers can
// build reusable timers against the same (possibly virtual) time base.
func (d *Dispatcher) Clock() vclock.Clock { return d.clock }

// Err returns the error that stopped the receive loop, or nil while running.
func (d *Dispatcher) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Close closes the underlying endpoint, which stops the receive loop and
// closes all queues.
func (d *Dispatcher) Close() error { return d.ep.Close() }

func (d *Dispatcher) run() {
	for {
		m, err := d.ep.Recv()
		if err != nil {
			d.stop(err)
			return
		}
		d.queue(m.Kind).push(m)
	}
}

func (d *Dispatcher) stop(err error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.err = err
	qs := make([]*queue, 0, len(d.queues))
	for _, q := range d.queues {
		qs = append(qs, q)
	}
	d.mu.Unlock()
	if d.merged != nil {
		d.merged.close()
	}
	for _, q := range qs {
		q.close()
	}
}
