package transport_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// TestFramesContract holds every network to what its endpoints say about
// received payloads (Endpoint.Frames). A backend answers with one pool per
// network object, the same from every endpoint and from a wrapper that only
// observes; a decorator answers nil. Where the answer is a pool it is
// verified: a payload still reads as sent after the next frame has come out
// of the same connection, scribbling over it to its full capacity changes
// neither that next delivery nor a delivery to another endpoint, and a
// collective group over the network recycles its wire buffers. Where the
// answer is nil, a collective group over the network recycles nothing: after
// 100 AllReduces its pool has served no send and holds no byte.
func TestFramesContract(t *testing.T) {
	mem := func() transport.Network { return transport.NewMemNetwork() }
	tcp := func(t *testing.T) transport.Network {
		r, err := transport.StartTCPRouter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return transport.NewTCPNetwork(r.ListenAddr())
	}
	for _, tc := range []struct {
		name   string
		net    func(t *testing.T) transport.Network
		pooled bool
	}{
		{"mem", func(*testing.T) transport.Network { return mem() }, true},
		{"tcp", tcp, true},
		{"reliable-over-mem", func(*testing.T) transport.Network {
			return transport.NewReliableNetwork(mem(), transport.ReliableConfig{ResendInterval: time.Millisecond})
		}, false},
		{"coalescing-over-mem", func(*testing.T) transport.Network {
			return transport.NewCoalescingNetwork(mem(), transport.CoalesceConfig{FlushInterval: 50 * time.Microsecond})
		}, false},
		{"fault-over-mem", func(*testing.T) transport.Network {
			return transport.NewFaultNetwork(mem(), transport.FaultConfig{Seed: 7, DelayProb: 0.25, MaxDelay: 200 * time.Microsecond})
		}, false},
		{"latency-over-mem", func(*testing.T) transport.Network {
			return transport.NewFaultNetwork(mem(), transport.FaultConfig{Latency: 20 * time.Microsecond, Jitter: 10 * time.Microsecond})
		}, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			verifyShared(t, tc.net(t), tc.net(t), tc.pooled)
			if tc.pooled {
				verifyExclusive(t, tc.net(t))
			}
			hits, held := allReduces(t, tc.net(t), tc.pooled)
			if tc.pooled && hits == 0 {
				t.Errorf("network with a pool: the group's pools served no send")
			}
			if !tc.pooled && (hits != 0 || held != 0) {
				t.Errorf("network without a pool: pools served %d sends and hold %d bytes, want none", hits, held)
			}
		})
	}
	t.Run("tcp-send-returns-pooled", func(t *testing.T) { verifyTCPReturnsPooled(t, tcp(t)) })
	t.Run("reliable-over-fault-over-tcp", func(t *testing.T) {
		net := transport.NewReliableNetwork(
			transport.NewFaultNetwork(tcp(t), transport.FaultConfig{Seed: 3, ResetEvery: 17, ResetLen: 3}),
			transport.ReliableConfig{ResendInterval: 2 * time.Millisecond})
		verifyIntactStream(t, net)
	})
}

// verifyShared checks that two endpoints of one network, the second behind
// an observing wrapper and a dispatcher, answer with the same pool, and an
// endpoint of a second network of the same kind with another one.
func verifyShared(t *testing.T, net, other transport.Network, pooled bool) {
	t.Helper()
	defer net.Close()
	defer other.Close()
	register := func(n transport.Network, rank int) transport.Endpoint {
		ep, err := n.Register(transport.Proc("S", rank))
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a, b, c := register(net, 0), register(poisonNet{net}, 1), register(other, 0)
	if (a.Frames() != nil) != pooled || a.Frames() != b.Frames() {
		t.Fatalf("endpoint pools %p and (observed) %p, want one shared pool: %v", a.Frames(), b.Frames(), pooled)
	}
	if d := transport.NewDispatcher(b); d.Frames() != a.Frames() {
		t.Fatalf("dispatcher pool %p, want its endpoint's %p", d.Frames(), a.Frames())
	}
	if pooled && c.Frames() == a.Frames() {
		t.Fatalf("two networks share the pool %p", a.Frames())
	}
}

// verifyTCPReturnsPooled: a payload marked Pooled is back in the network's
// pool once Send returns, an unmarked one is not, and the receiver reads
// both as sent.
func verifyTCPReturnsPooled(t *testing.T, net transport.Network) {
	defer net.Close()
	a, err := net.Register(transport.Proc("P", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Register(transport.Proc("P", 1))
	if err != nil {
		t.Fatal(err)
	}
	frames := a.Frames()
	for _, pooled := range []bool{true, false} {
		payload := frames.Get(3000)
		for i := range payload {
			payload[i] = byte(i)
		}
		before := frames.Stats().Held
		if err := a.Send(transport.Message{Kind: transport.KindPoint, Dst: b.Addr(), Payload: payload, Pooled: pooled}); err != nil {
			t.Fatal(err)
		}
		if got, want := frames.Stats().Held-before, map[bool]int{true: cap(payload)}[pooled]; got != want {
			t.Errorf("Pooled=%v: the pool holds %d more bytes after Send, want %d", pooled, got, want)
		}
		m, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Payload {
			if v != byte(i) || len(m.Payload) != 3000 {
				t.Fatalf("Pooled=%v: received %d bytes, byte %d = %d", pooled, len(m.Payload), i, v)
			}
		}
	}
}

// verifyIntactStream sends 300 KindData payloads from one endpoint of net to
// another, each drawn from and marked for the sender's pool when it has
// one and handed back by the receiver to its pool when it has one — core's
// data plane — and checks that every payload arrives once, in order, as
// sent. Under the race detector handed-back frames are poisoned, so a layer
// that put back a payload it still held for resend would deliver garbage.
func verifyIntactStream(t *testing.T, net transport.Network) {
	t.Helper()
	defer net.Close()
	a, err := net.Register(transport.Proc("R", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Register(transport.Proc("R", 1))
	if err != nil {
		t.Fatal(err)
	}
	const msgs, size = 300, 4096
	fill := func(k int, p []byte) {
		for i := range p {
			p[i] = byte(k*7 + i)
		}
	}
	errc := make(chan error, 1)
	go func() {
		frames := a.Frames()
		for k := 0; k < msgs; k++ {
			p := frames.Get(size)
			fill(k, p)
			if err := a.Send(transport.Message{Kind: transport.KindData, Dst: b.Addr(), Payload: p, Pooled: frames != nil}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	want := make([]byte, size)
	for k := 0; k < msgs; k++ {
		m, err := b.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", k, err)
		}
		fill(k, want)
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("message %d arrived changed", k)
		}
		b.Frames().Put(m.Payload)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// verifyExclusive sends three payloads from a, two to b back to back and one
// to c, and checks b's first against the other two deliveries.
func verifyExclusive(t *testing.T, net transport.Network) {
	t.Helper()
	defer net.Close()
	var eps [3]transport.Endpoint
	for i := range eps {
		ep, err := net.Register(transport.Proc("X", i))
		if err != nil {
			t.Fatal(err)
		}
		if ep.Frames() == nil {
			t.Fatalf("endpoint %d has no pool", i)
		}
		eps[i] = ep
	}
	a, b, c := eps[0], eps[1], eps[2]
	payload := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 3000) }
	for i, dst := range []transport.Endpoint{b, c, b} {
		m := transport.Message{Kind: transport.KindPoint, Dst: dst.Addr(), Tag: "p", Payload: payload(byte(i + 1))}
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(ep transport.Endpoint) []byte {
		m, err := ep.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return m.Payload
	}
	first, next, other := recv(b), recv(b), recv(c)
	if !bytes.Equal(first, payload(1)) {
		t.Errorf("the first payload changed when the next frame was read")
	}
	first = first[:cap(first)]
	for i := range first {
		first[i] = 0xEE
	}
	if !bytes.Equal(next, payload(3)) {
		t.Errorf("scribbling over a payload changed the next delivery to the same endpoint")
	}
	if !bytes.Equal(other, payload(2)) {
		t.Errorf("scribbling over a payload changed a delivery to another endpoint")
	}
}

// allReduces runs 100 checked AllReduces on a three-rank group over net and
// returns how many sends the group's pools served and the bytes they hold.
func allReduces(t *testing.T, net transport.Network, pooled bool) (hits uint64, held int64) {
	t.Helper()
	defer net.Close()
	const ranks = 3
	reg := obsv.NewRegistry()
	ins := collective.NewInstruments(reg, "G")
	comms := make([]*collective.Comm, ranks)
	for r := range comms {
		ep, err := net.Register(transport.Proc("G", r))
		if err != nil {
			t.Fatal(err)
		}
		d := transport.NewDispatcher(ep)
		if (d.Frames() != nil) != pooled {
			t.Fatalf("rank %d: dispatcher has a pool: %v, want %v", r, d.Frames() != nil, pooled)
		}
		if comms[r], err = collective.New(d, "G", r, ranks); err != nil {
			t.Fatal(err)
		}
		comms[r].SetTimeout(10 * time.Second)
		comms[r].SetInstruments(ins)
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *collective.Comm) {
			defer wg.Done()
			vals := make([]float64, 16)
			for i := 0; i < 100 && errs[r] == nil; i++ {
				for j := range vals {
					vals[j] = float64(r + i + j)
				}
				if errs[r] = c.AllReduceInPlace(vals, collective.Sum); errs[r] == nil && vals[5] != float64(3*(i+5)+3) {
					errs[r] = fmt.Errorf("allreduce %d: vals[5] = %v", i, vals[5])
				}
			}
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	l := obsv.L("program", "G")
	return reg.Counter("collective.pool.hits", l).Load(), reg.Gauge("collective.pool.bytes", l).Load()
}
