package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/transport"
	"repro/internal/wire"
)

// connKey names a connection uniquely: "P0.r1>P1.r1".
func connKey(exp, imp string) string { return exp + ">" + imp }

// coupledWindow returns the sub-rectangle a connection transfers: its
// configured window, or the whole array when none was given.
func coupledWindow(cc config.Connection, l decomp.Layout) decomp.Rect {
	if cc.Windowed() {
		return cc.Window
	}
	return decomp.Bounds(l)
}

// Control payloads (every Kind but KindData) have fixed little-endian
// layouts, docs/PROTOCOL.md "Control payloads". Each message lists its fields
// once, in its fields method, which both encodes (wire.Encode(msg.fields))
// and decodes it. Passing the method value rather than the message as an
// interface keeps the message on the caller's stack.

// decode reads m's control payload with a message's fields method; on a
// malformed payload it fails the program and returns false.
func (p *Program) decode(m transport.Message, fields func(*wire.Ctl)) bool {
	if err := wire.Decode(m.Payload, fields); err != nil {
		p.fail(fmt.Errorf("core: %s: %v %q payload from %s: %w", p.name, m.Kind, m.Tag, m.Src, err))
		return false
	}
	return true
}

// result is a match.Result as an Int field.
func result(c *wire.Ctl, r *match.Result) { v := int(*r); c.Int(&v); *r = match.Result(v) }

// spec is a decomp.Spec's fields: its kind, then five Ints.
func spec(c *wire.Ctl, s *decomp.Spec) {
	kind := string(s.Kind)
	c.Str(&kind)
	s.Kind = decomp.LayoutKind(kind)
	for _, v := range [...]*int{&s.Rows, &s.Cols, &s.P, &s.PR, &s.PC} {
		c.Int(v)
	}
}

// layoutMsg announces one region's layout during the rep-to-rep handshake
// and the rep-to-process fan-out.
type layoutMsg struct {
	Conn   string      // connection key
	Remote decomp.Spec // the sender's layout of its end
	// IsReply marks the mutual half of the handshake. Every non-reply
	// announcement is answered with a reply (never the other way around, which
	// would loop), so a peer that restarts and re-announces always gets our
	// layout again — processes deduplicate repeats.
	IsReply bool
}

func (m *layoutMsg) fields(c *wire.Ctl) {
	c.Str(&m.Conn)
	spec(c, &m.Remote)
	c.Bool(&m.IsReply)
}

// Recovery control-message tags (KindControl).
const (
	rejoinTag  = "rejoin"  // restarted rep -> peer reps: rejoinMsg
	releaseTag = "release" // importer proc -> exporter rep -> procs: releaseMsg
	resendTag  = "resend"  // exporter rep -> own procs: requestMsg to re-send data for
)

// rejoinMsg is a restarted program re-introducing itself to a peer rep. It
// names the restart epoch (which also keys the transport session reset) and,
// per connection, where replay must resume.
type rejoinMsg struct {
	// Epoch is the restarted incarnation's epoch (checkpoint epoch + 1).
	Epoch uint64
	// Exports lists, sorted by connection key, each connection this program
	// exports on with its resume request id: the minimum request count
	// across its restored ranks. The importing peer re-sends every request
	// from min(resume, delivered).
	Exports []resumePoint
}

// resumePoint is one connection's resume request id.
type resumePoint struct {
	Conn  string
	ReqID int
}

func (m *rejoinMsg) fields(c *wire.Ctl) {
	c.U64(&m.Epoch)
	wire.List(c, &m.Exports, (*resumePoint).fields)
}

func (e *resumePoint) fields(c *wire.Ctl) {
	c.Str(&e.Conn)
	c.Int(&e.ReqID)
}

// releaseMsg is a checkpoint acknowledgement travelling importer process ->
// exporter rep (and fanned to the exporter's processes): every request with
// id < Through is covered by a durable importer checkpoint, so the matched
// versions retained for post-crash resync can be freed.
type releaseMsg struct {
	Conn    string
	Through int
}

func (m *releaseMsg) fields(c *wire.Ctl) {
	c.Str(&m.Conn)
	c.Int(&m.Through)
}

// importCallMsg is an importer process entering a collective import.
type importCallMsg struct {
	Region string
	ReqTS  float64
}

func (m *importCallMsg) fields(c *wire.Ctl) {
	c.Str(&m.Region)
	c.F64(&m.ReqTS)
}

// requestMsg is an import request travelling importer-rep -> exporter-rep,
// and exporter-rep -> exporter processes (KindForward).
type requestMsg struct {
	Conn  string
	ReqID int
	ReqTS float64
}

func (m *requestMsg) fields(c *wire.Ctl) {
	c.Str(&m.Conn)
	c.Int(&m.ReqID)
	c.F64(&m.ReqTS)
}

// responseMsg is an exporter process's (possibly repeated) reply to a
// forwarded request.
type responseMsg struct {
	Conn    string
	ReqID   int
	ReqTS   float64
	Rank    int
	Result  match.Result
	MatchTS float64
	Latest  float64
}

func (m *responseMsg) fields(c *wire.Ctl) {
	c.Str(&m.Conn)
	c.Int(&m.ReqID)
	c.F64(&m.ReqTS)
	c.Int(&m.Rank)
	result(c, &m.Result)
	c.F64(&m.MatchTS)
	c.F64(&m.Latest)
}

// ParseResponse decodes a KindResponse payload with the parser the rep
// uses, for observers of the wire such as the DST checker.
func ParseResponse(payload []byte) (conn string, reqID, rank int, res match.Result, err error) {
	var m responseMsg
	err = wire.Decode(payload, m.fields)
	return m.Conn, m.ReqID, m.Rank, m.Result, err
}

// answerMsg is the final collective answer: exporter-rep -> importer-rep,
// then importer-rep -> importer processes. The same shape serves buddy-help
// messages (exporter-rep -> pending exporter processes).
type answerMsg struct {
	Conn    string
	ReqID   int
	ReqTS   float64
	Result  match.Result
	MatchTS float64

	// flow is the observability trace ID of the request this answers. It is
	// not a field of the layout: it travels on the wire only via
	// Message.Trace and is re-attached by the receiver.
	flow uint64
}

func (m *answerMsg) fields(c *wire.Ctl) {
	c.Str(&m.Conn)
	c.Int(&m.ReqID)
	c.F64(&m.ReqTS)
	result(c, &m.Result)
	c.F64(&m.MatchTS)
}

// errorMsg aborts a program when its rep detects a violation.
type errorMsg struct {
	Text string
}

func (m *errorMsg) fields(c *wire.Ctl) { c.Str(&m.Text) }

// KindData payload layout (binary, little-endian): a header, then the
// sub-rectangle's float64s, row-major (decomp.Grid.AppendPacked):
//
//	reqID   int64
//	matchTS float64
//	r0,c0,r1,c1 int64 (the global sub-rectangle)
const dataHeaderSize = 8 * 6

// appendData appends the KindData payload for sub of g to dst, packing the
// values straight from g.
func appendData(dst []byte, reqID int, matchTS float64, g *decomp.Grid, sub decomp.Rect) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(reqID)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(matchTS))
	for _, v := range [...]int{sub.R0, sub.C0, sub.R1, sub.C1} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
	}
	return g.AppendPacked(dst, sub)
}

// parseData splits a KindData payload into its header fields and its body,
// the encoded values (decomp.Grid.UnpackFrom), which must be sub's size.
// Only the importer's plan vouches for sub itself.
func parseData(b []byte) (reqID int, matchTS float64, sub decomp.Rect, body []byte, err error) {
	if len(b) < dataHeaderSize {
		return 0, 0, decomp.Rect{}, nil, fmt.Errorf("core: data message of %d bytes", len(b))
	}
	reqID = int(int64(binary.LittleEndian.Uint64(b)))
	matchTS = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	sub = decomp.NewRect(
		int(int64(binary.LittleEndian.Uint64(b[16:]))),
		int(int64(binary.LittleEndian.Uint64(b[24:]))),
		int(int64(binary.LittleEndian.Uint64(b[32:]))),
		int(int64(binary.LittleEndian.Uint64(b[40:]))),
	)
	if body = b[dataHeaderSize:]; len(body) != wire.Float64sSize(sub.Area()) {
		return 0, 0, decomp.Rect{}, nil,
			fmt.Errorf("core: data message carries %d bytes for %v (%d cells)", len(body), sub, sub.Area())
	}
	return reqID, matchTS, sub, body, nil
}
