package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/vclock"
)

// LatencyConfig parameterizes a LatencyNetwork.
type LatencyConfig struct {
	// Latency is the fixed one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniform random amount in [0, Jitter) per message.
	Jitter time.Duration
	// Seed seeds the jitter RNG (0 behaves like 1), so a scenario seed
	// reproduces the same jitter sequence run to run.
	Seed int64
	// Clock supplies the time source for the delays (nil = wall clock).
	Clock vclock.Clock
}

// LatencyNetwork wraps another Network and delays every message by a fixed
// latency plus optional uniform jitter, preserving per-pair FIFO order. It
// models the cluster interconnect of the paper's testbed (Gigabit Ethernet,
// ~100 µs) or a WAN, and supports the ablation of how control-message
// latency erodes the buddy-help window: a buddy-help message only saves
// memcpys if it outruns the slow process's exports.
type LatencyNetwork struct {
	inner Network
	cfg   LatencyConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLatencyNetwork wraps inner, delaying each delivery by latency plus a
// uniform random amount in [0, jitter). The jitter RNG is seeded with 1;
// callers that sweep scenario seeds use NewLatencyNetworkCfg to plumb their
// own.
func NewLatencyNetwork(inner Network, latency, jitter time.Duration) *LatencyNetwork {
	return NewLatencyNetworkCfg(inner, LatencyConfig{Latency: latency, Jitter: jitter})
}

// NewLatencyNetworkCfg wraps inner with the given latency plan.
func NewLatencyNetworkCfg(inner Network, cfg LatencyConfig) *LatencyNetwork {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	return &LatencyNetwork{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Register implements Network.
func (n *LatencyNetwork) Register(addr Addr) (Endpoint, error) {
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	le := &latencyEndpoint{
		net:   n,
		inner: ep,
		queue: make(chan delayedMsg, DefaultMailboxDepth),
		done:  make(chan struct{}),
	}
	go le.pump()
	return le, nil
}

// Close implements Network.
func (n *LatencyNetwork) Close() error { return n.inner.Close() }

// Unwrap returns the wrapped Network (observability walks the layer stack).
func (n *LatencyNetwork) Unwrap() Network { return n.inner }

// delay draws one delivery delay.
func (n *LatencyNetwork) delay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.mu.Unlock()
	}
	return d
}

type delayedMsg struct {
	due time.Time
	msg Message
}

// latencyEndpoint delays sends: each message is queued with a due time and a
// per-endpoint pump goroutine releases them in order, preserving FIFO (the
// fixed base latency dominates, and the pump never reorders).
type latencyEndpoint struct {
	net      *LatencyNetwork
	inner    Endpoint
	queue    chan delayedMsg
	done     chan struct{}
	closeOne sync.Once
}

func (e *latencyEndpoint) pump() {
	for {
		select {
		case dm := <-e.queue:
			if !holdUntil(e.net.cfg.Clock, dm.due, e.done) {
				return
			}
			if err := e.inner.Send(dm.msg); err != nil {
				return
			}
		case <-e.done:
			return
		}
	}
}

func (e *latencyEndpoint) Addr() Addr { return e.inner.Addr() }

// RecvExclusive is false: an injector promises nothing about the payloads
// it lets through.
func (e *latencyEndpoint) RecvExclusive() bool { return false }

func (e *latencyEndpoint) Send(msg Message) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	select {
	case e.queue <- delayedMsg{due: e.net.cfg.Clock.Now().Add(e.net.delay()), msg: msg}:
		return nil
	case <-e.done:
		return ErrClosed
	}
}

func (e *latencyEndpoint) Recv() (Message, error) { return e.inner.Recv() }

func (e *latencyEndpoint) RecvTimeout(d time.Duration) (Message, error) {
	return e.inner.RecvTimeout(d)
}

func (e *latencyEndpoint) Close() error {
	e.closeOne.Do(func() { close(e.done) })
	return e.inner.Close()
}
