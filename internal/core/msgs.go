package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/match"
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

// layoutMsg announces one region's layout during the rep-to-rep handshake
// and the rep-to-process fan-out.
type layoutMsg struct {
	Conn   string // connection key
	Region string // region name on the RECEIVING side
	Remote decomp.Spec
	Local  decomp.Spec
	// IsReply marks the mutual half of the handshake. Every non-reply
	// announcement is answered with a reply (never the other way around, which
	// would loop), so a peer that restarts and re-announces always gets our
	// layout again — processes deduplicate repeats.
	IsReply bool
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
	// Exports maps connection keys this program exports on to the resume
	// request id: the minimum request count across its restored ranks. The
	// importing peer re-sends every request from min(resume, delivered).
	Exports map[string]int
	// Imports maps connection keys this program imports on to the number of
	// import calls its checkpoint covers (the next request id it will issue).
	Imports map[string]int
}

// releaseMsg is a checkpoint acknowledgement travelling importer process ->
// exporter rep (and fanned to the exporter's processes): every request with
// id < Through is covered by a durable importer checkpoint, so the matched
// versions retained for post-crash resync can be freed.
type releaseMsg struct {
	Conn    string
	Through int
}

// importCallMsg is an importer process entering a collective import.
type importCallMsg struct {
	Region string
	ReqTS  float64
}

// requestMsg is an import request travelling importer-rep -> exporter-rep,
// and exporter-rep -> exporter processes (KindForward).
type requestMsg struct {
	Conn  string
	ReqID int
	ReqTS float64
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

// answerMsg is the final collective answer: exporter-rep -> importer-rep,
// then importer-rep -> importer processes. The same shape serves buddy-help
// messages (exporter-rep -> pending exporter processes).
type answerMsg struct {
	Conn    string
	Region  string // import region name (filled by the importer rep fan-out)
	ReqID   int
	ReqTS   float64
	Result  match.Result
	MatchTS float64

	// flow is the observability trace ID of the request this answers. It is
	// unexported on purpose: gob never serializes it, so it travels on the
	// wire only via Message.Trace and is re-attached by the receiver.
	flow uint64
}

// errorMsg aborts a program when its rep detects a violation.
type errorMsg struct {
	Text string
}

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
