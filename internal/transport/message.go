// Package transport provides the message-passing substrate for the coupling
// framework. It plays the role MPI/PVM point-to-point messaging plays in the
// paper's system: every simulated process (and every program's representative)
// owns an Endpoint with a unique Addr, and sends typed, FIFO-ordered messages
// to any other Addr through a Network.
//
// Two Network implementations are provided: MemNetwork routes messages through
// Go channels inside one OS process, and TCPNetwork routes them through a
// star-topology router over real sockets (zero-copy binary frames, see
// frame.go), so the same framework code runs unchanged over either.
package transport

import "fmt"

// RepRank is the pseudo-rank reserved for a program's representative process
// (the low-overhead control gateway the paper calls the "rep").
const RepRank = -1

// Addr names one endpoint: a process of a parallel program, identified by
// program name and rank, or the program's representative (Rank == RepRank).
type Addr struct {
	Program string
	Rank    int
}

// Rep returns the address of program's representative.
func Rep(program string) Addr { return Addr{Program: program, Rank: RepRank} }

// Proc returns the address of rank r in program.
func Proc(program string, r int) Addr { return Addr{Program: program, Rank: r} }

// IsRep reports whether a names a representative endpoint.
func (a Addr) IsRep() bool { return a.Rank == RepRank }

// String renders the address in the "program:rank" form used in logs and
// traces ("F:rep" for representatives).
func (a Addr) String() string {
	if a.IsRep() {
		return a.Program + ":rep"
	}
	return fmt.Sprintf("%s:%d", a.Program, a.Rank)
}

// Kind classifies a message so the per-process Dispatcher can route it to the
// right consumer without decoding the payload.
type Kind uint8

const (
	// KindControl carries framework-internal control traffic (handshakes,
	// shutdown notices).
	KindControl Kind = iota
	// KindCollective carries intra-program collective-operation traffic
	// (barrier, broadcast, reduce, ...).
	KindCollective
	// KindImportCall is sent by an importer process to its own rep when the
	// process enters a collective import operation.
	KindImportCall
	// KindRequest is an import request forwarded from the importer program's
	// rep to the exporter program's rep.
	KindRequest
	// KindForward is the exporter rep fanning an import request out to all
	// processes of the exporting program.
	KindForward
	// KindResponse is an exporter process answering a forwarded request
	// (MATCH / NO MATCH / PENDING), possibly more than once as its local
	// state advances.
	KindResponse
	// KindAnswer is a final matching decision: exporter rep -> importer rep,
	// and importer rep -> its own processes.
	KindAnswer
	// KindBuddyHelp is the buddy-help message: the exporter rep sending the
	// final decision to those of its own processes that answered PENDING.
	KindBuddyHelp
	// KindData carries a piece of a matched, distributed data object from an
	// exporter process to an importer process.
	KindData
	// KindLayout carries region layout descriptions during the rep-to-rep
	// initialization handshake.
	KindLayout
	// KindPoint carries application-level point-to-point payloads (e.g. halo
	// exchange inside a simulation component).
	KindPoint
	// KindAck is a cumulative delivery acknowledgement of the reliable
	// transport layer (ReliableNetwork). Acks are consumed inside the
	// transport and never surface to Recv callers.
	KindAck
	// KindBatch is a coalesced frame: several fully addressed messages bound
	// for one program, packed into one payload by CoalescingNetwork and
	// addressed to that program's representative (the control gateway), whose
	// transport layer dispatches them. Batches are opened inside the
	// transport (unbatched in Recv) and never surface to Recv callers.
	KindBatch
)

var kindNames = [...]string{
	KindControl:    "control",
	KindCollective: "collective",
	KindImportCall: "import-call",
	KindRequest:    "request",
	KindForward:    "forward",
	KindResponse:   "response",
	KindAnswer:     "answer",
	KindBuddyHelp:  "buddy-help",
	KindData:       "data",
	KindLayout:     "layout",
	KindPoint:      "point",
	KindAck:        "ack",
	KindBatch:      "batch",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the unit of communication. Payload is opaque to the transport;
// higher layers encode into it (core's control structs, its data pieces and
// the collectives' frames, all in fixed binary layouts). A
// sender gives Payload up at Send (Endpoint, "Payload ownership").
type Message struct {
	Kind     Kind
	Src, Dst Addr
	// Tag disambiguates streams within a kind (region name, collective op
	// sequence, request id). Interpretation is up to the layer owning Kind.
	Tag string
	// Seq is a per-(sender,receiver) sequence number stamped by Endpoint.Send
	// so receivers (and tests) can assert FIFO delivery. A Send that arrives
	// with Seq already nonzero keeps it: the reliable-delivery layer stamps
	// its own sequence numbers above the base transports and relies on them
	// surviving the trip for ack/resend bookkeeping.
	Seq     uint64
	Payload []byte
	// Trace is an optional observability trace ID piggybacked on the wire
	// (see internal/obsv). Zero means untraced and costs zero bytes in the
	// binary frame encoding; nonzero adds one fixed word to a frame and one
	// uvarint to a batch item. The transport never interprets it.
	Trace uint64
	// Pooled marks a Payload drawn from the sending endpoint's Frames pool:
	// whoever holds it last hands it back. It is never encoded on the wire.
	Pooled bool
}
