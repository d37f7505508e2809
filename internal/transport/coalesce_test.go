package transport

import (
	"fmt"
	"repro/internal/testutil"
	"sync"
	"testing"
	"time"
)

// coalesceNet builds a coalescing layer over a fresh MemNetwork with a long
// flush deadline, so tests control flushing via the size/count triggers.
func coalesceNet(t *testing.T, cfg CoalesceConfig) *CoalescingNetwork {
	t.Helper()
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = time.Hour
	}
	n := NewCoalescingNetwork(NewMemNetwork(), cfg)
	t.Cleanup(func() { n.Close() })
	return n
}

func TestCoalesceBatchesByCount(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{MaxMsgs: 4})
	a, err := n.Register(Proc("A", 0))
	if err != nil {
		t.Fatal(err)
	}
	// B's rep is the batch gateway: envelopes to program B arrive there and
	// its transport layer dispatches the items to B's endpoints.
	if _, err := n.Register(Rep("B")); err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(Proc("B", 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		err := a.Send(Message{Kind: KindResponse, Dst: b.Addr(), Tag: "t", Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		m, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Kind != KindResponse || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("msg %d: %+v", i, m)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("msg %d: seq %d, want %d", i, m.Seq, i+1)
		}
		if m.Src != a.Addr() || m.Dst != b.Addr() {
			t.Fatalf("msg %d: %v -> %v", i, m.Src, m.Dst)
		}
	}
	st := n.Stats()
	if st.Messages != 8 || st.Frames != 2 || st.Batches != 2 || st.Batched != 8 {
		t.Fatalf("stats %+v, want 8 messages in 2 batch frames", st)
	}
}

// TestCoalesceRepLessFallback: with no representative registered for the
// destination program, the envelope falls back to the oldest item's
// destination endpoint, which dispatches (bare point-to-point topologies).
func TestCoalesceRepLessFallback(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{MaxMsgs: 3})
	a, _ := n.Register(Proc("A", 0))
	b, _ := n.Register(Proc("B", 0))
	for i := 0; i < 3; i++ {
		if err := a.Send(Message{Kind: KindResponse, Dst: b.Addr(), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		m, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("msg %d: payload %d", i, m.Payload[0])
		}
	}
	if st := n.Stats(); st.Frames != 1 || st.Batched != 3 {
		t.Fatalf("stats %+v, want one 3-message batch", st)
	}
}

// TestCoalesceFanOutSharesFrame is the collective-semantics payoff: one
// sender's burst to several endpoints of a program (a representative's
// fan-out) travels as a single frame.
func TestCoalesceFanOutSharesFrame(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{MaxMsgs: 100})
	rep, _ := n.Register(Rep("F"))
	a, _ := n.Register(Rep("U"))
	const procs = 4
	eps := make([]Endpoint, procs)
	for i := range eps {
		eps[i], _ = n.Register(Proc("F", i))
	}
	for i := range eps {
		if err := a.Send(Message{Kind: KindForward, Dst: Proc("F", i), Tag: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = rep
	n.bmu.Lock()
	err := n.flushAllLocked()
	n.bmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		m, err := ep.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
		if m.Dst != Proc("F", i) || m.Src != Rep("U") {
			t.Fatalf("proc %d got %v -> %v", i, m.Src, m.Dst)
		}
	}
	st := n.Stats()
	if st.Frames != 1 || st.Batched != int64(procs) {
		t.Fatalf("stats %+v, want the %d-message fan-out in 1 frame", st, procs)
	}
}

func TestCoalesceFlushOnBytes(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{MaxBytes: 64, MaxMsgs: 1000})
	a, _ := n.Register(Proc("A", 0))
	b, _ := n.Register(Proc("B", 0))
	if err := a.Send(Message{Kind: KindControl, Dst: b.Addr(), Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	m, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != 100 {
		t.Fatalf("payload %d bytes", len(m.Payload))
	}
	if st := n.Stats(); st.Frames != 1 {
		t.Fatalf("oversize message did not flush immediately: %+v", st)
	}
}

func TestCoalesceDeadlineFlush(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{FlushInterval: 2 * time.Millisecond})
	a, _ := n.Register(Proc("A", 0))
	b, _ := n.Register(Proc("B", 0))
	if err := a.Send(Message{Kind: KindRequest, Dst: b.Addr(), Tag: "lonely"}); err != nil {
		t.Fatal(err)
	}
	m, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("deadline flush never happened: %v", err)
	}
	if m.Tag != "lonely" {
		t.Fatalf("got %+v", m)
	}
}

// TestCoalescePassthroughOrdering checks that a bulk message (payload over
// MaxItemBytes) flushes the pending batch first, so per-pair FIFO order
// survives the mixing here, where batch and bulk share one mailbox path.
func TestCoalescePassthroughOrdering(t *testing.T) {
	n := coalesceNet(t, CoalesceConfig{MaxMsgs: 100, MaxItemBytes: 512})
	a, _ := n.Register(Proc("A", 0))
	b, _ := n.Register(Proc("B", 0))
	send := func(k Kind, tag string, size int) {
		t.Helper()
		if err := a.Send(Message{Kind: k, Dst: b.Addr(), Tag: tag, Payload: make([]byte, size)}); err != nil {
			t.Fatal(err)
		}
	}
	send(KindResponse, "c1", 8)
	send(KindResponse, "c2", 8)
	send(KindData, "bulk", 2048) // over MaxItemBytes: must flush c1,c2 ahead of itself
	send(KindResponse, "c3", 8)
	a.Close() // flushes c3

	want := []string{"c1", "c2", "bulk", "c3"}
	for i, tag := range want {
		m, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Tag != tag {
			t.Fatalf("msg %d: got %q, want %q", i, m.Tag, tag)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("msg %d (%s): seq %d, want %d (one counter across both paths)", i, tag, m.Seq, i+1)
		}
	}
	st := n.Stats()
	if st.Frames != 3 { // batch(c1,c2) + bulk + batch(c3)
		t.Fatalf("stats %+v, want 3 frames", st)
	}
}

// TestCoalesceUnderReliable stacks the layers the intended way —
// Reliable(Coalescing(base)) — and checks the reliable sequence numbers
// survive batching and every message arrives exactly once in order.
func TestCoalesceUnderReliable(t *testing.T) {
	co := NewCoalescingNetwork(NewMemNetwork(), CoalesceConfig{FlushInterval: time.Millisecond})
	rel := NewReliableNetwork(co, ReliableConfig{})
	defer rel.Close()
	a, err := rel.Register(Proc("A", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rel.Register(Proc("B", 0))
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	go func() {
		for i := 0; i < msgs; i++ {
			for {
				err := a.Send(Message{Kind: KindResponse, Dst: b.Addr(), Payload: []byte{byte(i)}})
				if err == nil {
					break
				}
				testutil.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		m, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("msg %d: got payload %d (reordered or dropped)", i, m.Payload[0])
		}
	}
	st := co.Stats()
	if st.Frames >= st.Messages {
		t.Fatalf("no coalescing happened: %+v", st)
	}
}

// TestCoalesceRace hammers one coalescing network from many goroutines in
// both directions; run under -race in the CI chaos job. The program's rep
// is registered as the batch gateway, so batched traffic keeps per-pair
// FIFO order even under contention.
func TestCoalesceRace(t *testing.T) {
	n := NewCoalescingNetwork(NewMemNetwork(), CoalesceConfig{
		MaxMsgs:       8,
		FlushInterval: 100 * time.Microsecond,
	})
	defer n.Close()
	if _, err := n.Register(Rep("P")); err != nil {
		t.Fatal(err)
	}
	const peers = 4
	const msgsPerPair = 150
	eps := make([]Endpoint, peers)
	for i := range eps {
		ep, err := n.Register(Proc("P", i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2*peers)
	for i, ep := range eps {
		wg.Add(2)
		go func(i int, ep Endpoint) { // sender: to every other peer, varied kinds
			defer wg.Done()
			for s := 0; s < msgsPerPair; s++ {
				for j := range eps {
					if j == i {
						continue
					}
					k := KindResponse
					if s%10 == 9 {
						k = KindControl
					}
					if err := ep.Send(Message{Kind: k, Dst: Proc("P", j), Tag: "r", Payload: []byte{byte(s)}}); err != nil {
						errc <- fmt.Errorf("send %d->%d: %w", i, j, err)
						return
					}
				}
			}
		}(i, ep)
		go func(i int, ep Endpoint) { // receiver: per-source FIFO check
			defer wg.Done()
			last := make(map[Addr]uint64)
			for r := 0; r < (peers-1)*msgsPerPair; r++ {
				m, err := ep.RecvTimeout(10 * time.Second)
				if err != nil {
					errc <- fmt.Errorf("recv at %d after %d msgs: %w", i, r, err)
					return
				}
				if m.Seq != last[m.Src]+1 {
					errc <- fmt.Errorf("at %d: %s seq %d after %d", i, m.Src, m.Seq, last[m.Src])
					return
				}
				last[m.Src] = m.Seq
			}
		}(i, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
