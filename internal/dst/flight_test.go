package dst

import (
	"strings"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestCheckerFlightDumpOnViolation arms the invariant checker with two
// programs' tracers on one virtual clock, forces a delivery-order violation
// through the wrapped network (a sequence gap, the reliable-layer bug class
// the checker exists for), and asserts the violation produced decodable
// dumps whose merged timeline orders spans across both tracers by virtual
// time — epochs included, which the spans' own offsets alone get wrong here.
func TestCheckerFlightDumpOnViolation(t *testing.T) {
	dir := t.TempDir()
	chk := NewChecker()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	tf := obsv.NewTracer(64, clk)
	clk.Advance(time.Millisecond)
	tu := obsv.NewTracer(64, clk)
	clk.Advance(time.Millisecond / 2)
	rf, ru := tf.Ring("F", 0), tu.Ring("U", 0)
	rf.Record(obsv.Span{Name: "flt.mark", TS: rf.Now(), Detail: "f-before"}) // 1.5 ms after tf's epoch
	clk.Advance(time.Millisecond / 2)
	ru.Record(obsv.Span{Name: "flt.mark", TS: ru.Now(), Detail: "u-before"}) // 1 ms after tu's, 0.5 ms later
	chk.SetFlight(dir, tf, tu)

	net := chk.Wrap(transport.NewMemNetwork())
	defer net.Close()
	src, err := net.Register(transport.Proc("F", 0))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.Register(transport.Proc("U", 0))
	if err != nil {
		t.Fatal(err)
	}
	// Seq 1 then seq 3: above the reliable layer that gap is exactly-once
	// in-order delivery broken.
	for _, seq := range []uint64{1, 3} {
		if err := src.Send(transport.Message{
			Kind: transport.KindControl, Dst: dst.Addr(), Seq: seq,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	verr := chk.Err()
	if verr == nil {
		t.Fatal("sequence gap not latched as a violation")
	}

	paths := chk.FlightDumps()
	if len(paths) != 2 {
		t.Fatalf("violation wrote %d dumps, want 2: %v", len(paths), paths)
	}
	dumps := make([]*obsv.Dump, len(paths))
	for i, path := range paths {
		d, err := obsv.ReadDump(path)
		if err != nil {
			t.Fatalf("dump %s does not decode: %v", path, err)
		}
		if !strings.Contains(d.Reason, "delivery order") {
			t.Fatalf("dump reason %q misses the violation", d.Reason)
		}
		found := false
		for _, sp := range d.Spans {
			if sp.Name == "flt.violation" && sp.Lane == "dst:0" && strings.Contains(sp.Detail, "seq 3") {
				found = true
			}
		}
		if !found {
			t.Fatalf("dump %s has no violation span naming the bad seq", path)
		}
		dumps[i] = d
	}

	// The merged timeline interleaves both programs in virtual-time order.
	var got []string
	for _, sp := range obsv.MergeDumps(dumps...) {
		got = append(got, sp.Lane+" "+sp.Name)
	}
	want := []string{"F:0 flt.mark", "U:0 flt.mark", "dst:0 flt.violation", "dst:0 flt.violation"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("merged timeline %q, want %q", got, want)
	}
}

// TestCheckerRejectsUndecodableResponse pins the failure mode the checker
// must not have: exporter processes are the only senders of KindResponse, so
// one the mirror struct cannot read — garbage, or a gob whose connection
// field was renamed away — is the response-order invariant going blind, and
// must be latched rather than skipped. A well-formed response passes and is
// counted, which is what lets a scenario notice a tap that saw nothing.
func TestCheckerRejectsUndecodableResponse(t *testing.T) {
	send := func(t *testing.T, payload []byte) *Checker {
		chk := NewChecker()
		net := chk.Wrap(transport.NewMemNetwork())
		defer net.Close()
		src, err := net.Register(transport.Proc("F", 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Register(transport.Rep("F")); err != nil {
			t.Fatal(err)
		}
		if err := src.Send(transport.Message{
			Kind: transport.KindResponse, Dst: transport.Rep("F"), Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
		return chk
	}
	marshal := func(v any) []byte {
		b, err := wire.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	good := send(t, marshal(respRecord{Conn: "U.f", ReqID: 0, Result: match.Match}))
	if err := good.Err(); err != nil {
		t.Fatalf("well-formed response rejected: %v", err)
	}
	if n := good.decisions(); n != 1 {
		t.Fatalf("checker counted %d decisive responses, want 1", n)
	}
	for name, payload := range map[string][]byte{
		"garbage": []byte("not a gob"),
		"renamed field": marshal(struct {
			Connection string
			ReqID      int
		}{"U.f", 0}),
	} {
		chk := send(t, payload)
		if err := chk.Err(); err == nil || !strings.Contains(err.Error(), "not decodable") {
			t.Errorf("%s: response passed the checker unseen (err = %v)", name, err)
		}
		if n := chk.decisions(); n != 0 {
			t.Errorf("%s: counted as %d decisions", name, n)
		}
	}
}
