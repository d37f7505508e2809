package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/vclock"
)

// latencyDeliveries sends k messages at virtual time zero through an injector
// with 30 ms latency and 10 ms jitter, and returns the virtual time each was
// delivered at. The clock moves only while the destination mailbox is empty
// and the sender's pump is parked on its next message, and then exactly to
// that message's due time, so the times are the injector's delays and
// nothing else.
func latencyDeliveries(t *testing.T, seed int64, k int) []time.Duration {
	t.Helper()
	start := time.Unix(0, 0)
	vc := vclock.NewVirtual(start)
	n := NewFaultNetwork(NewMemNetwork(), FaultConfig{
		Seed: seed, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Clock: vc,
	})
	defer n.Close()
	a, _ := n.Register(Proc("L", 0))
	b, _ := n.Register(Proc("L", 1))
	sendSeq(t, a, b.Addr(), k)
	var at []time.Duration
	for guard := testutil.Now().Add(10 * time.Second); len(at) < k; {
		// The pump arms a timer only after it has handed the message before
		// to the mailbox, so parked with nothing queued means nothing is in
		// flight.
		due, parked := vc.NextDeadline()
		switch {
		case Queued(b.(*faultEndpoint).inner) > 0:
			m, err := b.Recv()
			if err != nil || m.Tag != fmt.Sprint(len(at)) {
				t.Fatalf("delivery %d: %q, %v", len(at), m.Tag, err)
			}
			at = append(at, vc.Since(start))
		case parked:
			vc.AdvanceTo(due)
		case testutil.Now().After(guard):
			t.Fatalf("delivered %d of %d", len(at), k)
		default:
			testutil.Sleep(50 * time.Microsecond) // the pump is between messages
		}
	}
	return at
}

// TestFaultLatencyDelaysDelivery: on a virtual clock every delivery comes no
// sooner than Latency and sooner than Latency+Jitter after its send, in send
// order, and a seed replays its delays.
func TestFaultLatencyDelaysDelivery(t *testing.T) {
	const k = 40
	first, again, other := latencyDeliveries(t, 5, k), latencyDeliveries(t, 5, k), latencyDeliveries(t, 6, k)
	same := true
	for i, d := range first {
		if d < 30*time.Millisecond || d >= 40*time.Millisecond {
			t.Errorf("message %d delivered after %v, want [30ms, 40ms)", i, d)
		}
		if d != again[i] {
			t.Errorf("message %d: seed 5 delivered after %v, then after %v", i, d, again[i])
		}
		same = same && d == other[i]
	}
	if same {
		t.Error("seeds 5 and 6 drew the same delays")
	}
}

// TestFaultLatencyPreservesFIFO: jitter larger than the gap between sends
// does not reorder (wall clock).
func TestFaultLatencyPreservesFIFO(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultConfig{Latency: time.Millisecond, Jitter: 500 * time.Microsecond})
	defer n.Close()
	a, _ := n.Register(Proc("L", 0))
	b, _ := n.Register(Proc("L", 1))
	const k = 50
	sendSeq(t, a, b.Addr(), k)
	for i := 0; i < k; i++ {
		m, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != fmt.Sprint(i) {
			t.Fatalf("out of order at %d: %q", i, m.Tag)
		}
	}
}

func TestFaultLatencyZeroIsTransparent(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultConfig{})
	defer n.Close()
	a, _ := n.Register(Proc("L", 0))
	b, _ := n.Register(Proc("L", 1))
	a.Send(Message{Kind: KindPoint, Dst: b.Addr(), Payload: []byte("x")})
	m, err := b.RecvTimeout(time.Second)
	if err != nil || string(m.Payload) != "x" {
		t.Fatalf("%v %q", err, m.Payload)
	}
	if m.Src != a.Addr() {
		t.Errorf("src %v", m.Src)
	}
}

func TestFaultLatencyCloseUnblocks(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultConfig{Latency: time.Minute})
	a, _ := n.Register(Proc("L", 0))
	b, _ := n.Register(Proc("L", 1))
	a.Send(Message{Kind: KindPoint, Dst: b.Addr()}) // would deliver in a minute
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	testutil.Sleep(10 * time.Millisecond)
	n.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("recv succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not unblock")
	}
	// Closing the network closes the inner endpoints; the injector's send
	// side stops taking messages when its own endpoint is closed.
	a.Close()
	if err := a.Send(Message{Dst: b.Addr()}); err == nil {
		t.Error("send after endpoint close succeeded")
	}
}

func TestFaultLatencyDuplicateRegister(t *testing.T) {
	n := NewFaultNetwork(NewMemNetwork(), FaultConfig{})
	defer n.Close()
	if _, err := n.Register(Proc("L", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(Proc("L", 0)); err == nil {
		t.Error("duplicate register accepted")
	}
}

// TestFaultSeedsKeepTheirPattern pins what the harness's chaos fault plan
// (chaosFaults) injects into one fixed send sequence under two of its seeds: the counts
// are those of the injector before it had Latency and Jitter, which draw
// nothing from the RNG while zero.
func TestFaultSeedsKeepTheirPattern(t *testing.T) {
	for seed, want := range map[int64]FaultStats{
		1: {Sent: 500, Dropped: 125, Delayed: 66, Resets: 5},
		8: {Sent: 500, Dropped: 133, Delayed: 64, Resets: 5},
	} {
		n := NewFaultNetwork(NewMemNetwork(), FaultConfig{
			Seed: seed, Drop: 0.2, DelayProb: 0.2, MaxDelay: 2 * time.Millisecond, ResetEvery: 97,
		})
		a, _ := n.Register(Proc("P", 0))
		b, _ := n.Register(Proc("P", 1))
		for i := 0; i < 500; i++ {
			src, dst := a, b
			if i%3 == 0 {
				src, dst = b, a
			}
			if err := src.Send(Message{Kind: KindPoint, Dst: dst.Addr()}); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.Stats(); got != want {
			t.Errorf("seed %d: %+v, want %+v", seed, got, want)
		}
		n.Close()
	}
}
