// Package dst is the deterministic simulation testing harness: it runs a
// whole coupled simulation — every program, process, representative and
// transport layer — inside one OS process under a virtual clock (package
// vclock), with every message-delivery fate (drop, delay, deliver) drawn from
// a pure hash of (seed, src, dst, pair sequence). A World owns the shared
// in-memory substrate and a discrete-event queue of delayed deliveries; the
// driver (sim.go) alternates between letting the application goroutines run
// to quiescence and advancing virtual time to the next scheduled event or
// timer, so hours of protocol time (heartbeats, resend timers, blocking
// timeouts) elapse in milliseconds of wall time.
//
// Determinism is defined at the level the paper's collective-operation
// semantics promise it: for a fixed seed, every import request must resolve
// to the same match timestamp and deliver byte-identical data on every run,
// no matter how the runtime schedules goroutines. The scenario digests
// (scenario.go) fold exactly those outcomes, and the test suite replays seeds
// to hold the framework to that contract. Traffic-level counters (how many
// frames a resend timer retransmitted before the ack won the race) are
// legitimately schedule-dependent and are reported, not replayed.
//
// The scenario script is not tied to the World: it takes an Env, and the
// wall-clock environments (FaultEnv over FaultNetwork+mem, TCPEnv over a
// loopback router; env.go) run the same stories under the same checker, where
// the same workload must produce the same digest.
package dst

import (
	"container/heap"
	"encoding/binary"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// mailboxDepth is the World's in-memory mailbox depth. It is generous
// so that fate-delayed deliveries flushed by the driver in a burst never
// block the simulation loop behind a slow consumer.
const mailboxDepth = 4096

// Config parameterizes a World's fault model. All fates are pure functions
// of (Seed, src, dst, per-pair send count): re-running the same scenario
// under the same seed draws the same fate for the n-th message of every
// directed pair, and a retransmission of a dropped message is a new send
// with a fresh fate — so drops are always eventually recovered by the
// reliable layer above.
type Config struct {
	// Seed selects the deterministic fault pattern.
	Seed int64
	// DropPermille is the per-message drop probability in 1/1000 units,
	// applied below the reliable layer (the message vanishes; the sender's
	// retransmission draws a fresh fate).
	DropPermille int
	// DelayPermille is the chance a non-dropped message is held in the
	// event queue instead of delivered immediately.
	DelayPermille int
	// MaxDelayQuanta and Quantum bound the virtual delivery delay of a
	// delayed message: uniform in {1..MaxDelayQuanta} quanta.
	MaxDelayQuanta int
	Quantum        time.Duration
}

// pairKey identifies a directed sender->receiver pair for fate sequencing.
type pairKey struct {
	src, dst transport.Addr
}

// event is one fate-delayed message delivery.
type event struct {
	due time.Time
	tie uint64 // fate hash, deterministic tiebreak at equal deadlines
	seq uint64 // scheduling order, final tiebreak
	ep  transport.Endpoint
	msg transport.Message
}

// World is one deterministic simulation universe: a virtual clock, a shared
// in-memory network, and the event queue of in-flight delayed messages.
// Frameworks attach through per-framework Views so that closing one
// framework (a simulated crash) tears down only its own endpoints.
type World struct {
	cfg Config
	clk *vclock.Virtual
	mem *transport.MemNetwork

	// activity counts every send, scheduled delivery and receive the world
	// observes; the driver's settle loop waits for it to stop moving before
	// advancing virtual time.
	activity atomic.Uint64

	mu     sync.Mutex
	events eventHeap
	eseq   uint64
	pair   map[pairKey]uint64

	delivered atomic.Uint64 // messages handed to a mailbox
	dropped   atomic.Uint64 // messages erased by fate
	delayed   atomic.Uint64 // messages routed through the event queue
	vanished  atomic.Uint64 // delayed messages whose endpoint died in flight
}

// Traffic counts what an environment's network did with the messages of one
// run. Schedule-dependent — how many frames a resend timer retransmitted
// before the ack won the race — so reported, never replayed.
type Traffic struct {
	Delivered, Dropped, Delayed, Vanished uint64
}

// traffic snapshots the world's delivery counters.
func (w *World) traffic() Traffic {
	return Traffic{
		Delivered: w.delivered.Load(),
		Dropped:   w.dropped.Load(),
		Delayed:   w.delayed.Load(),
		Vanished:  w.vanished.Load(),
	}
}

// NewWorld builds a simulation universe for one seeded run. The virtual
// clock starts at the Unix epoch so timestamps are reproducible.
func NewWorld(cfg Config) *World {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	mem := transport.NewMemNetworkDepth(mailboxDepth)
	mem.Clock = clk
	return &World{
		cfg:  cfg,
		clk:  clk,
		mem:  mem,
		pair: make(map[pairKey]uint64),
	}
}

// Clock returns the world's virtual clock, for injection into core.Options
// and the transport layer configs of every framework under test.
func (w *World) Clock() *vclock.Virtual { return w.clk }

// Close tears down the shared substrate (every view's endpoints with it).
func (w *World) Close() error { return w.mem.Close() }

// fate hashes one directed message occurrence into 64 deterministic bits.
func (w *World) fate(src, dst transport.Addr, n uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(w.cfg.Seed))
	h.Write(b[:])
	io.WriteString(h, src.String())
	h.Write([]byte{0})
	io.WriteString(h, dst.String())
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	return h.Sum64()
}

// nextPair increments and returns the send count of a directed pair.
func (w *World) nextPair(src, dst transport.Addr) uint64 {
	k := pairKey{src: src, dst: dst}
	w.mu.Lock()
	w.pair[k]++
	n := w.pair[k]
	w.mu.Unlock()
	return n
}

// schedule queues a delayed delivery.
func (w *World) schedule(ev event) {
	w.mu.Lock()
	w.eseq++
	ev.seq = w.eseq
	heap.Push(&w.events, ev)
	w.mu.Unlock()
}

// nextDue reports the earliest scheduled delivery deadline, if any.
func (w *World) nextDue() (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.events) == 0 {
		return time.Time{}, false
	}
	return w.events[0].due, true
}

// deliverDue flushes every event due at or before the current virtual time
// into its destination mailbox and returns how many it delivered. Deliveries
// to endpoints that died while the message was in flight (a crashed
// incarnation's mailbox) vanish, exactly as they would on a real network.
func (w *World) deliverDue() int {
	now := w.clk.Now()
	var due []event
	w.mu.Lock()
	for len(w.events) > 0 && !w.events[0].due.After(now) {
		due = append(due, heap.Pop(&w.events).(event))
	}
	w.mu.Unlock()
	for _, ev := range due {
		w.activity.Add(1)
		if err := ev.ep.Send(ev.msg); err != nil {
			w.vanished.Add(1)
		} else {
			w.delivered.Add(1)
		}
	}
	return len(due)
}

// View returns a new per-framework attachment to the world. Each simulated
// process (core.Join incarnation) gets its own View: Close detaches only
// that view's endpoints, leaving the shared substrate — and every other
// framework — running, which is what makes kill-and-restart scenarios
// possible inside one World.
func (w *World) View() *View {
	return &View{world: w}
}

// View is one framework's window onto the World, implementing
// transport.Network.
type View struct {
	world *World

	mu     sync.Mutex
	eps    []*viewEndpoint
	closed bool
}

// Register implements transport.Network.
func (v *View) Register(addr transport.Addr) (transport.Endpoint, error) {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil, transport.ErrClosed
	}
	v.mu.Unlock()
	inner, err := v.world.mem.Register(addr)
	if err != nil {
		return nil, err
	}
	ep := &viewEndpoint{world: v.world, inner: inner}
	v.mu.Lock()
	v.eps = append(v.eps, ep)
	v.mu.Unlock()
	return ep, nil
}

// Close implements transport.Network: it detaches this view's endpoints
// only. The shared World stays up for the other frameworks.
func (v *View) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	eps := v.eps
	v.eps = nil
	v.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// viewEndpoint applies the world's fate function on the send path.
type viewEndpoint struct {
	world *World
	inner transport.Endpoint
}

func (e *viewEndpoint) Addr() transport.Addr { return e.inner.Addr() }

// Frames is nil: an injector promises nothing about the payloads it lets
// through.
func (e *viewEndpoint) Frames() *buffer.Frames { return nil }

// Send draws the message's fate: erased, scheduled for a future virtual
// instant, or delivered immediately. Drops and delays report success to the
// caller — from the sender's point of view the message left; whether it
// arrives is the network's business, and recovering it is the reliable
// layer's.
func (e *viewEndpoint) Send(msg transport.Message) error {
	w := e.world
	w.activity.Add(1)
	cfg := &w.cfg
	if cfg.DropPermille > 0 || (cfg.DelayPermille > 0 && cfg.MaxDelayQuanta > 0 && cfg.Quantum > 0) {
		h := w.fate(e.inner.Addr(), msg.Dst, w.nextPair(e.inner.Addr(), msg.Dst))
		if cfg.DropPermille > 0 && int(h%1000) < cfg.DropPermille {
			w.dropped.Add(1)
			return nil
		}
		if cfg.DelayPermille > 0 && cfg.MaxDelayQuanta > 0 && cfg.Quantum > 0 &&
			int((h>>16)%1000) < cfg.DelayPermille {
			quanta := 1 + (h>>32)%uint64(cfg.MaxDelayQuanta)
			w.schedule(event{
				due: w.clk.Now().Add(time.Duration(quanta) * cfg.Quantum),
				tie: h,
				ep:  e.inner,
				msg: msg,
			})
			w.delayed.Add(1)
			return nil
		}
	}
	w.delivered.Add(1)
	return e.inner.Send(msg)
}

func (e *viewEndpoint) Recv() (transport.Message, error) {
	m, err := e.inner.Recv()
	if err == nil {
		e.world.activity.Add(1)
	}
	return m, err
}

func (e *viewEndpoint) RecvTimeout(d time.Duration) (transport.Message, error) {
	m, err := e.inner.RecvTimeout(d)
	if err == nil {
		e.world.activity.Add(1)
	}
	return m, err
}

func (e *viewEndpoint) Close() error { return e.inner.Close() }

// eventHeap orders scheduled deliveries by (due, fate hash, schedule order).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
