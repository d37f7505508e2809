package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/wire"
)

// ctlMsg is any control message: its fields method is its layout.
type ctlMsg interface{ fields(*wire.Ctl) }

// fresh returns a zero message of m's type.
func fresh(m ctlMsg) ctlMsg { return reflect.New(reflect.TypeOf(m).Elem()).Interface().(ctlMsg) }

// layout writes a control layout by hand, independently of wire.Ctl: a
// string is a 4-byte length and its bytes, a uint32 4 bytes, an int, uint64
// or float64 8 bytes, a bool 1 byte, all little-endian.
func layout(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case int:
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		case bool:
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b
}

// controlSamples is one instance of every control message with the bytes it
// must put on the wire (docs/PROTOCOL.md "Control payloads").
func controlSamples() []struct {
	name string
	msg  ctlMsg
	want []byte
} {
	const conn = "F.f>U.f"
	rowblock := decomp.Spec{Kind: decomp.KindRowBlock, Rows: 64, Cols: 32, P: 4}
	block2d := decomp.Spec{Kind: decomp.KindBlock2D, Rows: 64, Cols: 64, PR: 2, PC: 2}
	return []struct {
		name string
		msg  ctlMsg
		want []byte
	}{
		{"import call", &importCallMsg{Region: "f", ReqTS: 20},
			layout("f", 20.0)},
		{"request", &requestMsg{Conn: conn, ReqID: 3, ReqTS: 20},
			layout(conn, 3, 20.0)},
		{"response", &responseMsg{Conn: conn, ReqID: 3, ReqTS: 20, Rank: 1, Result: match.Match, MatchTS: 19.6, Latest: 21},
			layout(conn, 3, 20.0, 1, int(match.Match), 19.6, 21.0)},
		{"answer", &answerMsg{Conn: conn, ReqID: 3, ReqTS: 20, Result: match.NoMatch},
			layout(conn, 3, 20.0, int(match.NoMatch), 0.0)},
		{"layout", &layoutMsg{Conn: conn, Remote: block2d, IsReply: true},
			layout(conn, "block2d", 64, 64, 0, 2, 2, true)},
		{"layout announcement", &layoutMsg{Conn: conn, Remote: rowblock},
			layout(conn, "rowblock", 64, 32, 4, 0, 0, false)},
		{"release", &releaseMsg{Conn: conn, Through: 4},
			layout(conn, 4)},
		{"rejoin", &rejoinMsg{Epoch: 2, Exports: []resumePoint{{conn, 5}, {"F.g>V.g", 7}}},
			layout(uint64(2), uint32(2), conn, 5, "F.g>V.g", 7)},
		{"down", &errorMsg{Text: "boom"},
			layout("boom")},
	}
}

// TestControlPayloadBytes pins every control layout: each message encodes
// to exactly its hand-written bytes and decodes from them to itself. An
// answer's flow stays off the layout (it rides Message.Trace).
func TestControlPayloadBytes(t *testing.T) {
	for _, tc := range controlSamples() {
		got := wire.Encode(tc.msg.fields)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: encodes to\n%x, want\n%x", tc.name, got, tc.want)
			continue
		}
		back := fresh(tc.msg)
		if err := wire.Decode(tc.want, back.fields); err != nil || !reflect.DeepEqual(back, tc.msg) {
			t.Errorf("%s: decodes to %+v (%v), want %+v", tc.name, back, err, tc.msg)
		}
	}
	traced, bare := answerMsg{Conn: "c", flow: 77}, answerMsg{Conn: "c"}
	if !bytes.Equal(wire.Encode(traced.fields), wire.Encode(bare.fields)) {
		t.Error("an answer's flow reached its payload")
	}
	conn, reqID, rank, res, err := ParseResponse(controlSamples()[2].want)
	if conn != "F.f>U.f" || reqID != 3 || rank != 1 || res != match.Match || err != nil {
		t.Errorf("ParseResponse = %q %d %d %v %v", conn, reqID, rank, res, err)
	}
}

// TestControlCodecAllocs: a control hop's encode plus decode costs a handful
// of allocations — the payload and the decoded strings — where a gob round
// trip, which compiles a fresh decoder, cost 196.
func TestControlCodecAllocs(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("race instrumentation allocates")
	}
	resp := responseMsg{Conn: "F.f>U.f", ReqID: 3, ReqTS: 20, Rank: 1, Result: match.Match, MatchTS: 19.6, Latest: 21}
	ans := answerMsg{Conn: "F.f>U.f", ReqID: 3, ReqTS: 20, Result: match.Match, MatchTS: 19.6}
	for _, tc := range []struct {
		name string
		hop  func() error
	}{
		{"response", func() error {
			var out responseMsg
			return wire.Decode(wire.Encode(resp.fields), out.fields)
		}},
		{"answer", func() error {
			var out answerMsg
			return wire.Decode(wire.Encode(ans.fields), out.fields)
		}},
	} {
		if err := tc.hop(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := testing.AllocsPerRun(200, func() { _ = tc.hop() })
		t.Logf("%s: %.0f allocs per encode + decode", tc.name, n)
		if n > 3 {
			t.Errorf("%s: encode + decode costs %.0f allocs, want at most 3", tc.name, n)
		}
	}
}
