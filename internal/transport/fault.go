package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/vclock"
)

// FaultConfig parameterizes a FaultNetwork. All faults are drawn from one
// seeded RNG, so a given seed and send sequence reproduces the same fault
// pattern — the property the chaos harness's seed matrix relies on.
type FaultConfig struct {
	// Seed seeds the fault RNG (0 behaves like 1).
	Seed int64
	// Clock supplies the time source for injected delays (nil = wall clock).
	// The deterministic simulation harness injects a virtual clock so held
	// messages are released by simulated time, not host time.
	Clock vclock.Clock
	// Drop is the probability an individual message is silently lost.
	Drop float64
	// DelayProb is the probability a delivered message is held for a uniform
	// random duration in (0, MaxDelay] before delivery. Delays never reorder:
	// each sender's messages pass through one FIFO pump, so a delayed message
	// delays everything behind it (as a congested link would).
	DelayProb float64
	MaxDelay  time.Duration
	// Latency is a fixed one-way delay added to every delivered message and
	// Jitter a uniform random extra in [0, Jitter) — the interconnect of the
	// paper's testbed (Gigabit Ethernet, ~100 µs) or a WAN, for the ablation
	// of how control-message latency erodes the buddy-help window. With both
	// zero no RNG draw is made for them, so a seed's drop/delay/reset pattern
	// does not depend on these fields existing.
	Latency, Jitter time.Duration
	// ResetEvery, when positive, injects a connection reset at the sender of
	// every ResetEvery-th message network-wide: that message and the next
	// ResetLen-1 messages the same endpoint sends are lost, modeling the
	// kernel discarding a socket's in-flight buffer on RST.
	ResetEvery int
	// ResetLen is the number of messages lost per reset (default 4).
	ResetLen int
}

// FaultStats counts the faults a FaultNetwork injected.
type FaultStats struct {
	Sent, Dropped, Delayed, Resets uint64
}

// FaultNetwork is the injector: it wraps another Network and
// deterministically (seeded RNG) injects one-way message drops, delivery
// delays, connection resets and link latency, while preserving FIFO order
// among the messages it does deliver. It is the adversary half of the
// fault-tolerance test rig: layer ReliableNetwork on top and the combination
// must behave like a lossless transport.
type FaultNetwork struct {
	inner Network
	cfg   FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	count uint64 // messages judged, for ResetEvery

	stats struct {
		sent, dropped, delayed, resets atomic.Uint64
	}
}

// NewFaultNetwork wraps inner with the given fault plan.
func NewFaultNetwork(inner Network, cfg FaultConfig) *FaultNetwork {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.ResetLen <= 0 {
		cfg.ResetLen = 4
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	return &FaultNetwork{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (n *FaultNetwork) Stats() FaultStats {
	return FaultStats{
		Sent:    n.stats.sent.Load(),
		Dropped: n.stats.dropped.Load(),
		Delayed: n.stats.delayed.Load(),
		Resets:  n.stats.resets.Load(),
	}
}

// Register implements Network.
func (n *FaultNetwork) Register(addr Addr) (Endpoint, error) {
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	fe := &faultEndpoint{
		net:   n,
		inner: ep,
		queue: make(chan faultMsg, DefaultMailboxDepth),
		done:  make(chan struct{}),
	}
	go fe.pump()
	return fe, nil
}

// Close implements Network.
func (n *FaultNetwork) Close() error { return n.inner.Close() }

// Unwrap returns the wrapped Network (observability walks the layer stack).
func (n *FaultNetwork) Unwrap() Network { return n.inner }

// verdict is the fate drawn for one message.
type verdict struct {
	drop  bool
	delay time.Duration
}

// judge draws one message's fate under the network lock.
func (n *FaultNetwork) judge(e *faultEndpoint) verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.sent.Add(1)
	if e.resetLeft > 0 {
		e.resetLeft--
		n.stats.dropped.Add(1)
		return verdict{drop: true}
	}
	n.count++
	if n.cfg.ResetEvery > 0 && n.count%uint64(n.cfg.ResetEvery) == 0 {
		// This message triggers a reset of its sender's connection: it and
		// the next ResetLen-1 messages from the endpoint are lost.
		e.resetLeft = n.cfg.ResetLen - 1
		n.stats.resets.Add(1)
		n.stats.dropped.Add(1)
		return verdict{drop: true}
	}
	if n.cfg.Drop > 0 && n.rng.Float64() < n.cfg.Drop {
		n.stats.dropped.Add(1)
		return verdict{drop: true}
	}
	v := verdict{delay: n.cfg.Latency}
	if n.cfg.DelayProb > 0 && n.cfg.MaxDelay > 0 && n.rng.Float64() < n.cfg.DelayProb {
		n.stats.delayed.Add(1)
		v.delay += time.Duration(1 + n.rng.Int63n(int64(n.cfg.MaxDelay)))
	}
	if n.cfg.Jitter > 0 {
		v.delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return v
}

type faultMsg struct {
	due time.Time
	msg Message
}

// holdUntil blocks until the clock reaches due or done closes; it reports
// false when done won.
func holdUntil(clock vclock.Clock, due time.Time, done <-chan struct{}) bool {
	wait := clock.Until(due)
	if wait <= 0 {
		return true
	}
	t := clock.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-done:
		return false
	}
}

// faultEndpoint applies the fault plan on the send side. Surviving messages
// flow through a single FIFO pump goroutine so injected delays never reorder
// deliveries from this sender.
type faultEndpoint struct {
	net   *FaultNetwork
	inner Endpoint
	queue chan faultMsg
	done  chan struct{}

	closeOne sync.Once

	// resetLeft counts pending message losses from an injected connection
	// reset; guarded by net.mu.
	resetLeft int
}

func (e *faultEndpoint) pump() {
	for {
		select {
		case fm := <-e.queue:
			if !holdUntil(e.net.cfg.Clock, fm.due, e.done) {
				return
			}
			_ = e.inner.Send(fm.msg) // a vanished receiver is just another fault
		case <-e.done:
			return
		}
	}
}

func (e *faultEndpoint) Addr() Addr { return e.inner.Addr() }

// Frames is nil: an injector promises nothing about the payloads it lets
// through.
func (e *faultEndpoint) Frames() *buffer.Frames { return nil }

func (e *faultEndpoint) Send(msg Message) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	v := e.net.judge(e)
	if v.drop {
		return nil // silently lost, as the wire would lose it
	}
	select {
	case e.queue <- faultMsg{due: e.net.cfg.Clock.Now().Add(v.delay), msg: msg}:
		return nil
	case <-e.done:
		return ErrClosed
	}
}

func (e *faultEndpoint) Recv() (Message, error) { return e.inner.Recv() }

func (e *faultEndpoint) RecvTimeout(d time.Duration) (Message, error) {
	return e.inner.RecvTimeout(d)
}

func (e *faultEndpoint) Close() error {
	e.closeOne.Do(func() { close(e.done) })
	return e.inner.Close()
}
