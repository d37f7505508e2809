package transport

import (
	"fmt"
	"repro/internal/testutil"
	"sync"
	"testing"
	"time"
)

func TestAddrString(t *testing.T) {
	cases := []struct {
		a    Addr
		want string
	}{
		{Proc("F", 0), "F:0"},
		{Proc("U", 31), "U:31"},
		{Rep("F"), "F:rep"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("Addr%v.String() = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	if !Rep("X").IsRep() {
		t.Error("Rep(X).IsRep() = false")
	}
	if Proc("X", 0).IsRep() {
		t.Error("Proc(X,0).IsRep() = true")
	}
	if Proc("X", 2).Program != "X" || Proc("X", 2).Rank != 2 {
		t.Error("Proc fields wrong")
	}
}

func TestKindString(t *testing.T) {
	if KindBuddyHelp.String() != "buddy-help" {
		t.Errorf("KindBuddyHelp.String() = %q", KindBuddyHelp.String())
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}

func TestMemSendRecv(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, err := n.Register(Proc("P", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(Proc("P", 1))
	if err != nil {
		t.Fatal(err)
	}
	want := Message{Kind: KindPoint, Dst: b.Addr(), Tag: "hi", Payload: []byte{1, 2, 3}}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != a.Addr() || got.Tag != "hi" || string(got.Payload) != "\x01\x02\x03" {
		t.Errorf("got %+v", got)
	}
	if got.Seq != 1 {
		t.Errorf("first message Seq = %d, want 1", got.Seq)
	}
}

func TestMemDuplicateRegister(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	if _, err := n.Register(Proc("P", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(Proc("P", 0)); err != ErrDuplicateAddr {
		t.Errorf("duplicate register err = %v, want ErrDuplicateAddr", err)
	}
}

func TestMemUnknownAddr(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	err := a.Send(Message{Dst: Proc("P", 9)})
	if err != ErrUnknownAddr {
		t.Errorf("send to unknown = %v, want ErrUnknownAddr", err)
	}
}

// TestMemDestinationClosesUnderSender: a Send whose destination closes
// while the mailbox is full reports ErrUnknownAddr — the address is gone —
// and never ErrClosed, which callers read as their own endpoint shutting
// down. Only the first half of Close runs (done closed, address still
// registered), so whether the sender is already blocked or has yet to look
// the address up, it meets a full mailbox and a closed destination.
func TestMemDestinationClosesUnderSender(t *testing.T) {
	n := NewMemNetworkDepth(1)
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	b, _ := n.Register(Proc("P", 1))
	if err := a.Send(Message{Dst: b.Addr()}); err != nil { // fills the mailbox
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(Message{Dst: b.Addr()}) }()
	b.(*memEndpoint).fail(nil)
	select {
	case err := <-errc:
		if err != ErrUnknownAddr {
			t.Errorf("send to closing destination = %v, want ErrUnknownAddr", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send did not return when its destination closed")
	}
}

func TestMemFIFOPerPair(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	b, _ := n.Register(Proc("P", 1))
	const k = 100
	for i := 0; i < k; i++ {
		if err := a.Send(Message{Kind: KindPoint, Dst: b.Addr(), Tag: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != fmt.Sprint(i) {
			t.Fatalf("message %d out of order: tag %q", i, m.Tag)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d Seq = %d", i, m.Seq)
		}
	}
}

func TestMemRecvTimeout(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	start := testutil.Now()
	_, err := a.RecvTimeout(20 * time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("returned before deadline")
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	testutil.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestMemCloseReleasesAddr(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	a, _ := n.Register(Proc("P", 0))
	a.Close()
	if _, err := n.Register(Proc("P", 0)); err != nil {
		t.Errorf("re-register after close: %v", err)
	}
}

func TestMemNetworkClose(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Register(Proc("P", 0))
	n.Close()
	if err := a.Send(Message{Dst: Proc("P", 0)}); err != ErrClosed {
		t.Errorf("send after network close = %v, want ErrClosed", err)
	}
	if _, err := n.Register(Proc("Q", 0)); err != ErrClosed {
		t.Errorf("register after close = %v, want ErrClosed", err)
	}
}

func TestMemConcurrentSenders(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	dst, _ := n.Register(Proc("P", 99))
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Register(Proc("P", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Send(Message{Kind: KindPoint, Dst: dst.Addr()})
			}
		}(ep)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		for got < senders*per {
			if _, err := dst.Recv(); err != nil {
				break
			}
			got++
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d", got, senders*per)
	}
}

func TestDispatcherRoutesByKind(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	src, _ := n.Register(Proc("P", 0))
	ep, _ := n.Register(Proc("P", 1))
	d := NewDispatcher(ep)
	defer d.Close()

	src.Send(Message{Kind: KindData, Dst: ep.Addr(), Tag: "d1"})
	src.Send(Message{Kind: KindCollective, Dst: ep.Addr(), Tag: "c1"})
	src.Send(Message{Kind: KindData, Dst: ep.Addr(), Tag: "d2"})

	m, err := d.RecvTimeout(KindCollective, time.Second)
	if err != nil || m.Tag != "c1" {
		t.Fatalf("collective: %v %+v", err, m)
	}
	m, err = d.RecvTimeout(KindData, time.Second)
	if err != nil || m.Tag != "d1" {
		t.Fatalf("data 1: %v %+v", err, m)
	}
	m, err = d.RecvTimeout(KindData, time.Second)
	if err != nil || m.Tag != "d2" {
		t.Fatalf("data 2: %v %+v", err, m)
	}
}

func TestDispatcherBuffersBeforeSubscribe(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	src, _ := n.Register(Proc("P", 0))
	ep, _ := n.Register(Proc("P", 1))
	d := NewDispatcher(ep)
	defer d.Close()
	src.Send(Message{Kind: KindAnswer, Dst: ep.Addr(), Tag: "early"})
	testutil.Sleep(10 * time.Millisecond) // let the receive loop queue it
	m, err := d.RecvTimeout(KindAnswer, time.Second)
	if err != nil || m.Tag != "early" {
		t.Fatalf("buffered message lost: %v %+v", err, m)
	}
}

func TestDispatcherCloseUnblocks(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	ep, _ := n.Register(Proc("P", 0))
	d := NewDispatcher(ep)
	errc := make(chan error, 1)
	go func() {
		_, err := d.Recv(KindData)
		errc <- err
	}()
	testutil.Sleep(5 * time.Millisecond)
	d.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv(kind) did not unblock on Close")
	}
}

func TestDispatcherRecvTimeout(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	ep, _ := n.Register(Proc("P", 0))
	d := NewDispatcher(ep)
	defer d.Close()
	if _, err := d.RecvTimeout(KindData, 10*time.Millisecond); err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// TestDispatcherMergedKeepsSendOrder: on a merged dispatcher two kinds sent
// by one peer come out of RecvAny in the order they went in — a layout never
// trails the request its sender sent after it.
func TestDispatcherMergedKeepsSendOrder(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	src, _ := n.Register(Rep("A"))
	ep, _ := n.Register(Rep("B"))
	d := NewMergedDispatcher(ep, nil)
	defer d.Close()
	for i := 0; i < 1000; i++ {
		src.Send(Message{Kind: KindLayout, Dst: ep.Addr()})
		src.Send(Message{Kind: KindRequest, Dst: ep.Addr()})
		for _, want := range []Kind{KindLayout, KindRequest} {
			m, err := d.RecvAny()
			if err != nil || m.Kind != want {
				t.Fatalf("round %d: got %v (%v), want %v", i, m.Kind, err, want)
			}
		}
	}
}
