package dst

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Checker is the per-message invariant monitor. It wraps the outermost
// transport layer of every framework in a scenario (above the reliable
// layer), so each message is checked the moment it crosses the boundary:
//
//   - Receive side, per directed (peer address -> local endpoint) stream:
//     exactly-once in-order delivery. Above ReliableNetwork every sequenced
//     message must carry either the successor of the last delivered sequence
//     number or the opening counter of a higher session epoch (a restarted
//     incarnation's fresh stream). A duplicate, a gap, or an old-epoch
//     straggler here is a reliable-layer bug.
//
//   - Send side, per (process, connection) response stream: matcher
//     monotonicity as the protocol exposes it. PENDING responses carry
//     strictly increasing request IDs, decisive responses carry strictly
//     increasing request IDs, no request is decided twice, and no PENDING
//     follows its request's decision — once the matcher has committed an
//     answer, nothing may un-commit it.
//
// One Checker is shared by every framework of a scenario so cross-
// incarnation streams (a restarted process re-answering) stay under watch.
// The first violation is latched and reported by Err.
type Checker struct {
	mu sync.Mutex
	// seen is the highest delivered sequence per "src->dst" stream.
	seen map[string]uint64
	// lastPending / lastDecided track the response-order invariant per
	// "src|conn" stream.
	lastPending map[string]int
	lastDecided map[string]int
	// decided counts decisive responses observed. A scenario expects at
	// least one per import request, so a tap gone blind fails the run.
	decided  int
	firstErr error

	// flightDir/flight: when SetFlight armed them, the first violation
	// records an flt.violation span on every tracer and dumps each — the
	// deterministic world's last protocol events around the bug.
	flightDir string
	flight    []*obsv.Tracer
	flightOut []string
}

// NewChecker returns an empty invariant monitor.
func NewChecker() *Checker {
	return &Checker{
		seen:        make(map[string]uint64),
		lastPending: make(map[string]int),
		lastDecided: make(map[string]int),
	}
}

// Err returns the first invariant violation observed, or nil.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

func (c *Checker) fail(format string, args ...any) {
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("dst: invariant violation: "+format, args...)
		for _, t := range c.flight {
			r := t.Ring("dst", 0) // the checker's own lane
			r.Record(obsv.Span{Name: "flt.violation", TS: r.Now(), Detail: c.firstErr.Error()})
			if path, err := t.DumpFile(c.flightDir, c.firstErr.Error()); err == nil {
				c.flightOut = append(c.flightOut, path)
			}
		}
	}
}

// SetFlight arms crash-safe flight dumps: when the first invariant violation
// is latched, every tracer gets an flt.violation span on its "dst:0" lane and
// each is dumped to dir ("" = the OS temp directory) as a flight-*.json
// Chrome trace. FlightDumps returns the files.
func (c *Checker) SetFlight(dir string, tracers ...*obsv.Tracer) {
	c.mu.Lock()
	c.flightDir, c.flight = dir, tracers
	c.mu.Unlock()
}

// FlightDumps returns the dump files written when a violation was latched.
func (c *Checker) FlightDumps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.flightOut...)
}

// Wrap layers the checker over a framework's outermost network.
func (c *Checker) Wrap(inner transport.Network) transport.Network {
	return &checkNetwork{inner: inner, chk: c}
}

// decisions returns how many decisive responses the checker has observed.
func (c *Checker) decisions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decided
}

// respRecord is the decoded mirror of the core-internal response message
// (gob matches fields by name), enough to observe the matcher's decisions.
type respRecord struct {
	Conn   string
	ReqID  int
	Rank   int
	Result match.Result
}

// observeSend records a KindResponse leaving src. Exporter processes are
// the only senders of that kind, so one that does not decode into the mirror
// — or decodes without its connection — means the mirror has drifted from
// core's message (a renamed field, a new codec) and the response-order
// invariant would be off with every run still green: that is a violation.
func (c *Checker) observeSend(src transport.Addr, m transport.Message) {
	var rm respRecord
	err := wire.Unmarshal(m.Payload, &rm)
	key := src.String() + "|" + rm.Conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstErr != nil {
		return
	}
	if err != nil || rm.Conn == "" {
		c.fail("response from %s not decodable as a process response (conn %q): %v", src, rm.Conn, err)
		return
	}
	if rm.Result == match.Pending {
		if last, ok := c.lastPending[key]; ok && rm.ReqID <= last {
			c.fail("response order on %s: PENDING for req %d after PENDING for req %d", key, rm.ReqID, last)
			return
		}
		if decided, ok := c.lastDecided[key]; ok && rm.ReqID <= decided {
			c.fail("response order on %s: PENDING for req %d after req %d was decided", key, rm.ReqID, decided)
			return
		}
		c.lastPending[key] = rm.ReqID
		return
	}
	if decided, ok := c.lastDecided[key]; ok && rm.ReqID <= decided {
		if rm.ReqID == decided {
			c.fail("response order on %s: req %d decided twice", key, rm.ReqID)
		} else {
			c.fail("response order on %s: req %d decided after req %d", key, rm.ReqID, decided)
		}
		return
	}
	c.lastDecided[key] = rm.ReqID
	c.decided++
}

// observeRecv checks the exactly-once in-order contract for one delivered
// message. Unsequenced messages (traffic injected outside the reliable
// layer) are exempt.
func (c *Checker) observeRecv(dst transport.Addr, m transport.Message) {
	if m.Seq == 0 || m.Kind == transport.KindAck {
		return
	}
	key := m.Src.String() + "->" + dst.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstErr != nil {
		return
	}
	last := c.seen[key]
	switch {
	case m.Seq == last+1:
		// In-order successor (covers the very first message of epoch 0).
	case m.Seq>>32 > last>>32 && m.Seq&0xffffffff == 1:
		// Opening counter of a higher session epoch: a restarted peer.
	default:
		c.fail("delivery order on %s: seq %d (epoch %d ctr %d) after seq %d (epoch %d ctr %d)",
			key, m.Seq, m.Seq>>32, m.Seq&0xffffffff, last, last>>32, last&0xffffffff)
		return
	}
	c.seen[key] = m.Seq
}

// checkNetwork wires the Checker into a transport stack.
type checkNetwork struct {
	inner transport.Network
	chk   *Checker
}

func (n *checkNetwork) Register(a transport.Addr) (transport.Endpoint, error) {
	ep, err := n.inner.Register(a)
	if err != nil {
		return nil, err
	}
	return &checkEndpoint{Endpoint: ep, chk: n.chk}, nil
}

func (n *checkNetwork) Close() error { return n.inner.Close() }

// Unwrap lets core's recovery layer walk down to the ReliableNetwork when a
// peer rejoins (resetPeerSessions).
func (n *checkNetwork) Unwrap() transport.Network { return n.inner }

type checkEndpoint struct {
	transport.Endpoint
	chk *Checker
}

func (e *checkEndpoint) Send(m transport.Message) error {
	if m.Kind == transport.KindResponse {
		e.chk.observeSend(e.Addr(), m)
	}
	return e.Endpoint.Send(m)
}

func (e *checkEndpoint) Recv() (transport.Message, error) {
	m, err := e.Endpoint.Recv()
	if err == nil {
		e.chk.observeRecv(e.Addr(), m)
	}
	return m, err
}

func (e *checkEndpoint) RecvTimeout(d time.Duration) (transport.Message, error) {
	m, err := e.Endpoint.RecvTimeout(d)
	if err == nil {
		e.chk.observeRecv(e.Addr(), m)
	}
	return m, err
}
