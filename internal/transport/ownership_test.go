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

// TestRecvExclusiveContract holds every network to what its endpoints say
// about received payloads (Endpoint.RecvExclusive). Where the answer is yes
// it is verified: a payload still reads as sent after the next frame has come
// out of the same connection, and scribbling over it to its full capacity
// changes neither that next delivery nor a delivery to another endpoint —
// and a collective group over the network recycles its wire buffers. Where
// the answer is no, a collective group over the network recycles nothing:
// after 100 AllReduces its pool has served no send and holds no byte.
func TestRecvExclusiveContract(t *testing.T) {
	mem := func() transport.Network { return transport.NewMemNetwork() }
	for _, tc := range []struct {
		name      string
		net       func(t *testing.T) transport.Network
		exclusive bool
	}{
		{"mem", func(*testing.T) transport.Network { return mem() }, true},
		{"tcp", func(t *testing.T) transport.Network {
			r, err := transport.StartTCPRouter("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return transport.NewTCPNetwork(r.ListenAddr())
		}, true},
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
			if tc.exclusive {
				verifyExclusive(t, tc.net(t))
			}
			hits, held := allReduces(t, tc.net(t), tc.exclusive)
			if tc.exclusive && hits == 0 {
				t.Errorf("exclusive network: the group's pools served no send")
			}
			if !tc.exclusive && (hits != 0 || held != 0) {
				t.Errorf("network that is not exclusive: pools served %d sends and hold %d bytes, want none", hits, held)
			}
		})
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
		if !ep.RecvExclusive() {
			t.Fatalf("endpoint %d is not exclusive", i)
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
func allReduces(t *testing.T, net transport.Network, exclusive bool) (hits uint64, held int64) {
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
		if d.RecvExclusive() != exclusive {
			t.Fatalf("rank %d: dispatcher says exclusive=%v, want %v", r, d.RecvExclusive(), exclusive)
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
