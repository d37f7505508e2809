package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Reconnect backoff defaults (see TCPNetwork.MaxRetries).
const (
	DefaultRetryBase = 50 * time.Millisecond
	DefaultRetryCap  = 2 * time.Second
)

// maxFrameLen bounds a single frame so a corrupt or hostile length prefix
// cannot make a reader allocate unbounded memory.
const maxFrameLen = 1 << 30

// frameAllocChunk is the initial read-buffer allocation for frames larger
// than the current buffer: the buffer grows geometrically as the frame's
// bytes actually arrive, so a lying length prefix costs at most about twice
// the bytes received, never the full claimed length up front.
const frameAllocChunk = 1 << 20

// errFrameLength marks a frame whose length prefix exceeds maxFrameLen — a
// protocol (decode) error, counted in transport.decode_errors, unlike plain
// socket read failures.
var errFrameLength = errors.New("transport: frame length exceeds limit")

// The TCP stream is a sequence of length-prefixed binary frames: an outer
// uvarint frame length followed by the frame encoding of frame.go. Writes
// are vectored (net.Buffers): the header bytes come from a per-connection
// scratch buffer and the payload goes to the socket straight from the
// message, so bulk data is never copied into an intermediate buffer. Reads
// go through one reusable buffer per connection; the router forwards those
// bytes as-is (they are consumed before the next read), while client
// endpoints copy only the payload — the single piece of a received message
// that outlives the read buffer — into a frame of the network's pool for
// KindData, a fresh slice otherwise.

// frameWriter owns the write half of one socket. Methods are not
// concurrency-safe; callers serialize (the emu locks below).
type frameWriter struct {
	conn    net.Conn
	scratch []byte
	vecs    net.Buffers
}

// writeMessage encodes and writes one message as a length-prefixed frame.
// Everything but the payload is built in the scratch buffer; the payload is
// written from msg.Payload by the vectored write.
func (w *frameWriter) writeMessage(m Message) error {
	hdr := w.scratch[:0]
	hdr = wire.AppendUvarint(hdr, uint64(FrameSize(m)))
	hdr = append(hdr, byte(m.Kind), 0)
	var fixed [16]byte
	putU64(fixed[0:], m.Seq)
	putU32(fixed[8:], uint32(int32(m.Src.Rank)))
	putU32(fixed[12:], uint32(int32(m.Dst.Rank)))
	hdr = append(hdr, fixed[:]...)
	hdr = wire.AppendString(hdr, m.Src.Program)
	hdr = wire.AppendString(hdr, m.Dst.Program)
	hdr = wire.AppendString(hdr, m.Tag)
	hdr = wire.AppendUvarint(hdr, uint64(len(m.Payload)))
	w.scratch = hdr
	if len(m.Payload) == 0 {
		_, err := w.conn.Write(hdr)
		return err
	}
	w.vecs = append(w.vecs[:0], hdr, m.Payload)
	_, err := w.vecs.WriteTo(w.conn)
	return err
}

// writeRaw writes an already-encoded frame (the router's zero-copy forward
// path: received bytes go back out without a decode/re-encode round trip).
func (w *frameWriter) writeRaw(frame []byte) error {
	hdr := wire.AppendUvarint(w.scratch[:0], uint64(len(frame)))
	w.scratch = hdr
	w.vecs = append(w.vecs[:0], hdr, frame)
	_, err := w.vecs.WriteTo(w.conn)
	return err
}

// frameReader owns the read half of one socket: a buffered reader plus one
// reusable frame buffer. next returns frame bytes valid only until the
// following call.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(conn, 64<<10)}
}

func (fr *frameReader) next() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, err
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: %d bytes", errFrameLength, n)
	}
	if uint64(cap(fr.buf)) >= n {
		buf := fr.buf[:n]
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// The frame outgrows the buffer: grow geometrically, filling each new
	// stretch from the socket before growing again, so the allocation tracks
	// bytes that actually arrived rather than the claimed length.
	var buf []byte
	for uint64(len(buf)) < n {
		newCap := uint64(cap(buf)) * 2
		if newCap < frameAllocChunk {
			newCap = frameAllocChunk
		}
		if newCap > n {
			newCap = n
		}
		grown := make([]byte, newCap)
		copy(grown, buf)
		if _, err := io.ReadFull(fr.r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	fr.buf = buf
	return buf, nil
}

// TCPRouter is the hub of a star-topology TCP network. Every endpoint dials
// the router once, announces its address, and the router forwards messages by
// destination. A star keeps connection count linear in the number of
// processes, matching the "rep as low-overhead gateway" spirit of the paper,
// and means the framework code above needs no topology knowledge.
//
// Forwarding is zero-copy: the router never decodes a full message. It reads
// a frame, peeks at the addresses, stamps the pair sequence number in place
// (Seq sits at a fixed offset) and writes the same bytes to the destination
// socket before the next read reuses the buffer.
type TCPRouter struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[Addr]*routerConn
	seq    map[seqKey]uint64
	closed bool
	wg     sync.WaitGroup
}

type routerConn struct {
	conn net.Conn
	emu  sync.Mutex // serializes writes
	w    frameWriter
}

// StartTCPRouter listens on addr (e.g. "127.0.0.1:0") and serves endpoint
// connections until Close.
func StartTCPRouter(addr string) (*TCPRouter, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: router listen: %w", err)
	}
	r := &TCPRouter{
		ln:    ln,
		conns: make(map[Addr]*routerConn),
		seq:   make(map[seqKey]uint64),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// ListenAddr returns the router's bound address, for clients to dial.
func (r *TCPRouter) ListenAddr() string { return r.ln.Addr().String() }

// Close stops the router and disconnects all endpoints.
func (r *TCPRouter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := make([]*routerConn, 0, len(r.conns))
	for _, c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	err := r.ln.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	r.wg.Wait()
	return err
}

func (r *TCPRouter) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

// serveConn reads the hello (a Message whose Src is the endpoint's claimed
// address; a nonzero Seq marks a reconnect epoch), registers the connection,
// then forwards every further frame.
func (r *TCPRouter) serveConn(conn net.Conn) {
	defer r.wg.Done()
	fr := newFrameReader(conn)
	intern := wire.NewInterner()
	helloFrame, err := fr.next()
	if err != nil {
		conn.Close()
		return
	}
	hello, err := DecodeFrame(helloFrame, intern)
	if err != nil || hello.Tag != "hello" {
		conn.Close()
		return
	}
	addr := hello.Src
	rc := &routerConn{conn: conn}
	rc.w.conn = conn
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return
	}
	if old, dup := r.conns[addr]; dup {
		if hello.Seq == 0 {
			r.mu.Unlock()
			// Duplicate registration: refuse by closing; the dialer's Recv
			// will fail and Register report it.
			conn.Close()
			return
		}
		// Reconnect epoch: the endpoint lost its connection and dialed back
		// before we noticed the old socket die. The new connection takes
		// over; closing the old one unblocks its serveConn.
		delete(r.conns, addr)
		old.conn.Close()
	}
	r.conns[addr] = rc
	r.mu.Unlock()
	// Ack the hello so Register can fail fast on duplicates.
	rc.send(Message{Kind: KindControl, Tag: "hello-ok", Dst: addr})

	defer func() {
		r.mu.Lock()
		if r.conns[addr] == rc {
			delete(r.conns, addr)
		}
		r.mu.Unlock()
		conn.Close()
	}()
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		src, dst, err := frameAddrs(frame, intern)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		if src != addr {
			// The frame's source must be the address this connection
			// announced; anything else is a spoof or a bug. Drop the frame.
			continue
		}
		r.forward(frame, src, dst)
	}
}

// forward stamps the pair sequence into the frame in place (unsequenced
// traffic only — the reliable layer's nonzero numbering survives the trip)
// and writes the raw bytes to the destination. The frame aliases the
// caller's read buffer; the write below completes before serveConn reads
// the next frame, so no copy is needed.
func (r *TCPRouter) forward(frame []byte, src, dst Addr) {
	r.mu.Lock()
	to, ok := r.conns[dst]
	if ok && FrameSeq(frame) == 0 {
		k := seqKey{src: src, dst: dst}
		r.seq[k]++
		PatchFrameSeq(frame, r.seq[k])
	}
	r.mu.Unlock()
	if !ok {
		// No receiver: drop. TCP endpoints in this repo register before any
		// peer sends to them (the framework handshakes at startup).
		return
	}
	to.sendRaw(frame)
}

func (c *routerConn) send(m Message) {
	c.emu.Lock()
	defer c.emu.Unlock()
	_ = c.w.writeMessage(m) // a failed peer is detected by its own read loop
}

func (c *routerConn) sendRaw(frame []byte) {
	c.emu.Lock()
	defer c.emu.Unlock()
	_ = c.w.writeRaw(frame)
}

// TCPNetwork is the client side of a router-based network. Register dials the
// router once per address.
//
// The reconnect fields must be set before Register; they apply to every
// endpoint subsequently registered through this network object.
type TCPNetwork struct {
	routerAddr string

	// MaxRetries is the number of reconnect attempts an endpoint makes after
	// losing its router connection, with exponential backoff from RetryBase
	// capped at RetryCap. Zero (the default) disables reconnection: a lost
	// connection closes the endpoint and Recv reports the underlying error.
	// Reconnection replays nothing by itself — pair it with ReliableNetwork
	// to recover the messages the dead connection swallowed.
	MaxRetries int
	RetryBase  time.Duration
	RetryCap   time.Duration

	// RetrySeed seeds the reconnect-jitter RNG. Zero seeds it from the clock
	// at first use, decorrelating the processes of a real deployment; test
	// harnesses that sweep scenario seeds set it so backoff jitter replays.
	RetrySeed int64

	// Clock drives reconnect backoff waits and receive timeouts
	// (nil = wall clock).
	Clock vclock.Clock

	// SessionEpoch, when nonzero, marks this network object as a restarted
	// incarnation of its addresses: the initial hello carries it, so the
	// router hands any stale registration of the same address over to the
	// new connection instead of refusing it as a duplicate (the recovery
	// layer's session handoff). Reconnect epochs count on from it.
	SessionEpoch uint64

	// decodeErrors counts frames that failed to decode on any endpoint of
	// this network; reconnects counts successful re-registrations after a
	// lost router connection. Both feed the transport.* obsv counters.
	decodeErrors atomic.Uint64
	reconnects   atomic.Uint64

	frames buffer.Frames // every endpoint's Frames

	mu     sync.Mutex
	eps    []*tcpEndpoint
	closed bool

	// jrng is the reconnect-jitter RNG, locally seeded from RetrySeed (never
	// the package-global rand, whose draw order depends on goroutine
	// interleaving and would break scenario-seed replay).
	jmu  sync.Mutex
	jrng *rand.Rand
}

// TCPStats is a snapshot of a TCPNetwork's error counters.
type TCPStats struct {
	// DecodeErrors counts received frames that failed to decode (corrupt or
	// truncated streams; each costs the connection, which then reconnects).
	DecodeErrors uint64
	// Reconnects counts successful endpoint re-registrations after a lost
	// router connection — the reconnect epochs the router has seen from this
	// process.
	Reconnects uint64
}

// Stats returns the network's accumulated error counters.
func (n *TCPNetwork) Stats() TCPStats {
	return TCPStats{
		DecodeErrors: n.decodeErrors.Load(),
		Reconnects:   n.reconnects.Load(),
	}
}

// NewTCPNetwork returns a network whose endpoints connect to the router at
// routerAddr.
func NewTCPNetwork(routerAddr string) *TCPNetwork {
	return &TCPNetwork{routerAddr: routerAddr}
}

func (n *TCPNetwork) retryBase() time.Duration {
	if n.RetryBase > 0 {
		return n.RetryBase
	}
	return DefaultRetryBase
}

func (n *TCPNetwork) retryCap() time.Duration {
	if n.RetryCap > 0 {
		return n.RetryCap
	}
	return DefaultRetryCap
}

func (n *TCPNetwork) clock() vclock.Clock { return vclock.Or(n.Clock) }

// jitter draws a uniform duration in [0, limit) from the reconnect RNG,
// lazily seeding it on first use.
func (n *TCPNetwork) jitter(limit int64) time.Duration {
	n.jmu.Lock()
	defer n.jmu.Unlock()
	if n.jrng == nil {
		seed := n.RetrySeed
		if seed == 0 {
			seed = n.clock().Now().UnixNano() | 1
		}
		n.jrng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(n.jrng.Int63n(limit))
}

// Register dials the router and claims addr.
func (n *TCPNetwork) Register(addr Addr) (Endpoint, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.mu.Unlock()

	conn, err := net.Dial("tcp", n.routerAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial router: %w", err)
	}
	ep := &tcpEndpoint{
		mailbox: newMailbox(DefaultMailboxDepth, n.Clock),
		net:     n,
		addr:    addr,
		conn:    conn,
		fr:      newFrameReader(conn),
		intern:  wire.NewInterner(),
	}
	ep.w.conn = conn
	ep.epoch = n.SessionEpoch
	// Hello handshake: announce our address, wait for the ack. A nonzero Seq
	// (restarted incarnation) takes over any stale registration.
	if err := ep.w.writeMessage(Message{Kind: KindControl, Tag: "hello", Src: addr, Seq: n.SessionEpoch}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	if _, err := ep.fr.next(); err != nil {
		conn.Close()
		return nil, ErrDuplicateAddr
	}
	go ep.readLoop()

	n.mu.Lock()
	n.eps = append(n.eps, ep)
	n.mu.Unlock()
	return ep, nil
}

// Close closes every endpoint registered through this network object.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	eps := n.eps
	n.eps = nil
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// ResetConnections abruptly closes the router socket of every endpoint
// without closing the endpoints themselves — the fault-injection hook the
// chaos tests use to simulate a link flap or router-side RST. Endpoints with
// reconnection enabled (MaxRetries > 0) dial back and resume; others fail
// with the connection error on their next Recv.
func (n *TCPNetwork) ResetConnections() {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, len(n.eps))
	copy(eps, n.eps)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.resetConn()
	}
}

type tcpEndpoint struct {
	mailbox
	net  *TCPNetwork
	addr Addr

	emu  sync.Mutex // guards conn/w (writes and reconnect swaps)
	conn net.Conn
	w    frameWriter

	fr     *frameReader   // owned by readLoop
	intern *wire.Interner // owned by readLoop

	epoch uint64 // reconnect counter, carried in the re-hello's Seq
}

// readLoop receives until the connection dies; a non-deliberate death either
// reconnects (when the network enables it) or records the error so Recv can
// report why the endpoint stopped, instead of masquerading as a clean Close.
func (e *tcpEndpoint) readLoop() {
	for {
		frame, err := e.fr.next()
		if err == nil {
			var m Message
			if m, err = DecodeFrame(frame, e.intern); err == nil {
				// The decoded payload aliases the read buffer; the mailbox
				// retains the message past the next read, so the payload is
				// the one thing we copy.
				if m.Kind == KindData {
					m.Payload = append(e.net.frames.Get(len(m.Payload))[:0], m.Payload...)
				} else if len(m.Payload) > 0 {
					m.Payload = append([]byte(nil), m.Payload...)
				}
				if e.put(m) {
					continue
				}
				return
			}
			// A frame that arrived but would not decode: corrupt stream. The
			// connection is dropped (and reconnected) like a read error, but
			// the cause is counted separately for /statusz.
			e.net.decodeErrors.Add(1)
		} else if errors.Is(err, errFrameLength) {
			// An impossible length prefix is protocol corruption too, not a
			// mere socket failure.
			e.net.decodeErrors.Add(1)
		}
		if e.isClosed() { // deliberate Close
			return
		}
		if e.reconnect(err) {
			continue
		}
		return
	}
}

// reconnect dials the router again with capped, jittered exponential
// backoff. On success it swaps the connection under the write lock
// (in-flight Sends see either socket, never a torn one) and the read loop
// resumes. On exhaustion it records the root cause and closes the endpoint.
func (e *tcpEndpoint) reconnect(cause error) bool {
	max := e.net.MaxRetries
	if max <= 0 {
		e.shut(fmt.Errorf("transport: tcp %s: connection lost: %w", e.addr, cause))
		return false
	}
	backoff := e.net.retryBase()
	for attempt := 1; attempt <= max; attempt++ {
		// Sleep a uniformly random duration in [backoff/2, backoff]: peers
		// that lost the same router would otherwise retry in lockstep and
		// keep colliding on every doubled interval.
		sleep := backoff/2 + e.net.jitter(int64(backoff/2)+1)
		t := e.net.clock().NewTimer(sleep)
		select {
		case <-e.done:
			t.Stop()
			return false
		case <-t.C():
		}
		if backoff *= 2; backoff > e.net.retryCap() {
			backoff = e.net.retryCap()
		}
		conn, err := net.Dial("tcp", e.net.routerAddr)
		if err != nil {
			continue
		}
		w := frameWriter{conn: conn}
		fr := newFrameReader(conn)
		epoch := atomic.AddUint64(&e.epoch, 1)
		if err := w.writeMessage(Message{Kind: KindControl, Tag: "hello", Src: e.addr, Seq: epoch}); err != nil {
			conn.Close()
			continue
		}
		if _, err := fr.next(); err != nil {
			conn.Close()
			continue
		}
		e.emu.Lock()
		old := e.conn
		e.conn, e.w = conn, w
		e.emu.Unlock()
		e.fr = fr
		old.Close()
		e.net.reconnects.Add(1)
		return true
	}
	e.shut(fmt.Errorf("transport: tcp %s: connection lost, %d reconnect attempts failed: %w",
		e.addr, max, cause))
	return false
}

// resetConn closes the current socket without closing the endpoint
// (fault injection; see TCPNetwork.ResetConnections).
func (e *tcpEndpoint) resetConn() {
	e.emu.Lock()
	conn := e.conn
	e.emu.Unlock()
	conn.Close()
}

func (e *tcpEndpoint) Addr() Addr { return e.addr }

// Frames is the network's pool: readLoop copies each payload out of the
// connection's read buffer into an array of its own.
func (e *tcpEndpoint) Frames() *buffer.Frames { return &e.net.frames }

// Send writes msg to the router; a Pooled payload then goes back to the pool.
func (e *tcpEndpoint) Send(msg Message) error {
	if msg.Pooled {
		defer e.net.frames.Put(msg.Payload)
	}
	if e.isClosed() {
		return ErrClosed
	}
	msg.Src = e.addr
	e.emu.Lock()
	defer e.emu.Unlock()
	if err := e.w.writeMessage(msg); err != nil {
		return fmt.Errorf("transport: tcp send %s: %w", routeString(msg), err)
	}
	return nil
}

// Close closes the socket, which stops readLoop.
func (e *tcpEndpoint) Close() error { return e.shut(nil) }

// shut is Close with the error Recv is to report once the mailbox is empty.
func (e *tcpEndpoint) shut(err error) error {
	if e.fail(err) {
		e.emu.Lock()
		conn := e.conn
		e.emu.Unlock()
		conn.Close()
	}
	return nil
}
