package transport_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/vclock"
)

var errPoison = errors.New("poisoned receive loop")

// poisonNet passes everything through except a message tagged "poison",
// which its endpoints' Recv turns into errPoison: the way to make the receive
// loop of the layer above fail with something other than ErrClosed.
type poisonNet struct{ transport.Network }

type poisonEndpoint struct{ transport.Endpoint }

func (n poisonNet) Register(a transport.Addr) (transport.Endpoint, error) {
	ep, err := n.Network.Register(a)
	if err != nil {
		return nil, err
	}
	return poisonEndpoint{ep}, nil
}

func (e poisonEndpoint) Recv() (transport.Message, error) {
	m, err := e.Endpoint.Recv()
	if err == nil && m.Tag == "poison" {
		return transport.Message{}, errPoison
	}
	return m, err
}

// TestEndpointReceiveContract holds the four endpoints that queue their own
// deliveries to the rule stated on Endpoint.Close. RecvTimeout expires on
// the injected clock. Messages queued before Close come out of Recv and
// RecvTimeout alike, in order, and only then do both say ErrClosed. Close is
// idempotent and unblocks a parked Recv. An endpoint closed by the failure
// of its receive loop hands out what it had queued and then reports that
// failure, from both calls, not ErrClosed.
func TestEndpointReceiveContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns the network on clock and, where the endpoint has a
		// receive loop, a way to make the loop of the endpoint at an address
		// fail.
		build func(t *testing.T, clock vclock.Clock) (transport.Network, func(transport.Addr))
	}{
		{"mem", func(t *testing.T, clock vclock.Clock) (transport.Network, func(transport.Addr)) {
			n := transport.NewMemNetwork()
			n.Clock = clock
			return n, nil
		}},
		{"tcp", func(t *testing.T, clock vclock.Clock) (transport.Network, func(transport.Addr)) {
			r, err := transport.StartTCPRouter("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			n := transport.NewTCPNetwork(r.ListenAddr())
			n.Clock = clock
			return n, func(transport.Addr) { r.Close() }
		}},
		{"reliable-over-mem", func(t *testing.T, clock vclock.Clock) (transport.Network, func(transport.Addr)) {
			mem := transport.NewMemNetwork()
			return transport.NewReliableNetwork(poisonNet{mem}, transport.ReliableConfig{Clock: clock}), poisoner(t, mem)
		}},
		{"coalescing-over-mem", func(t *testing.T, clock vclock.Clock) (transport.Network, func(transport.Addr)) {
			mem := transport.NewMemNetwork()
			return transport.NewCoalescingNetwork(poisonNet{mem}, transport.CoalesceConfig{Clock: clock}), poisoner(t, mem)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			clock := vclock.NewVirtual(time.Unix(0, 0))
			net, breakLoop := tc.build(t, clock)
			defer net.Close()
			register := func(rank int) transport.Endpoint {
				ep, err := net.Register(transport.Proc("C", rank))
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
			src := register(0)
			// fill sends k tagged messages to ep and returns once all are
			// queued in its mailbox; virtual time moves so that a flush
			// window or a resend tick on the way passes.
			fill := func(ep transport.Endpoint, k int) {
				t.Helper()
				for i := 0; i < k; i++ {
					if err := src.Send(transport.Message{Kind: transport.KindPoint, Dst: ep.Addr(), Tag: fmt.Sprint(i)}); err != nil {
						t.Fatal(err)
					}
				}
				testutil.Eventually(t, 5*time.Second, func() bool {
					clock.Advance(time.Millisecond)
					return transport.Queued(ep) == k
				}, "%d messages queued at %s", k, ep.Addr())
			}
			// within runs a blocking receive under a wall-clock guard; tick
			// moves virtual time while it waits.
			within := func(what string, recv func() (transport.Message, error), tick time.Duration) (transport.Message, error) {
				t.Helper()
				type result struct {
					m   transport.Message
					err error
				}
				done := make(chan result, 1)
				go func() {
					m, err := recv()
					done <- result{m, err}
				}()
				guard := time.After(5 * time.Second)
				for {
					select {
					case r := <-done:
						return r.m, r.err
					case <-guard:
						t.Fatalf("%s: still blocked after 5 s", what)
					case <-time.After(time.Millisecond):
						clock.Advance(tick)
					}
				}
			}
			timed := func(ep transport.Endpoint) func() (transport.Message, error) {
				return func() (transport.Message, error) { return ep.RecvTimeout(time.Hour) }
			}
			wantTag := func(what string, m transport.Message, err error, tag int) {
				t.Helper()
				if err != nil || m.Tag != fmt.Sprint(tag) {
					t.Fatalf("%s = %q, %v; want message %d", what, m.Tag, err, tag)
				}
			}

			// The deadline is on the injected clock: twice the guard away on
			// the wall clock, one tick away on the virtual one.
			idle := register(1)
			tenSeconds := func() (transport.Message, error) { return idle.RecvTimeout(10 * time.Second) }
			if _, err := within("RecvTimeout on an idle endpoint", tenSeconds, 10*time.Second); err != transport.ErrTimeout {
				t.Errorf("RecvTimeout on an idle endpoint = %v, want ErrTimeout", err)
			}

			// Queued before Close: handed out by both calls, then ErrClosed.
			b := register(2)
			fill(b, 3)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := b.Recv()
			wantTag("Recv after Close", m, err, 0)
			m, err = b.RecvTimeout(time.Hour)
			wantTag("RecvTimeout after Close", m, err, 1)
			m, err = b.Recv()
			wantTag("Recv after Close", m, err, 2)
			if _, err := b.Recv(); err != transport.ErrClosed {
				t.Errorf("Recv on a closed, empty endpoint = %v, want ErrClosed", err)
			}
			if _, err := b.RecvTimeout(time.Hour); err != transport.ErrClosed {
				t.Errorf("RecvTimeout on a closed, empty endpoint = %v, want ErrClosed", err)
			}
			if err := b.Close(); err != nil {
				t.Errorf("second Close = %v", err)
			}
			if err := b.Send(transport.Message{Dst: src.Addr()}); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Send on a closed endpoint = %v, want ErrClosed", err)
			}

			// Close unblocks a parked Recv.
			parked := register(3)
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				testutil.Sleep(5 * time.Millisecond)
				parked.Close()
			}()
			if _, err := within("Recv parked across Close", parked.Recv, 0); err != transport.ErrClosed {
				t.Errorf("Recv parked across Close = %v, want ErrClosed", err)
			}
			<-closed

			// A failed receive loop: what was queued, then the failure.
			if breakLoop == nil {
				return
			}
			d := register(4)
			fill(d, 2)
			breakLoop(d.Addr())
			m, err = within("Recv after the loop failed", d.Recv, 0)
			wantTag("Recv after the loop failed", m, err, 0)
			m, err = within("RecvTimeout after the loop failed", timed(d), 0)
			wantTag("RecvTimeout after the loop failed", m, err, 1)
			_, failure := within("Recv on the failed endpoint", d.Recv, 0)
			if failure == nil || errors.Is(failure, transport.ErrClosed) || errors.Is(failure, transport.ErrTimeout) {
				t.Fatalf("Recv on the failed endpoint = %v, want the loop's error", failure)
			}
			if _, err := d.RecvTimeout(time.Hour); err != failure {
				t.Errorf("RecvTimeout on the failed endpoint = %v, Recv said %v", err, failure)
			}
		})
	}
}

// poisoner returns a breakLoop that sends the poison message straight over
// the backend to the endpoint at the given address.
func poisoner(t *testing.T, mem *transport.MemNetwork) func(transport.Addr) {
	return func(dst transport.Addr) {
		raw, err := mem.Register(transport.Proc("poisoner", 0))
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if err := raw.Send(transport.Message{Kind: transport.KindPoint, Dst: dst, Tag: "poison"}); err != nil {
			t.Fatal(err)
		}
	}
}
