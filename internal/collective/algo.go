package collective

import (
	"encoding/binary"
	"fmt"
)

// Algo names a collective algorithm: the label an operation's latency is
// observed under (see Instruments). No call takes an Algo — the Comm's
// dispatch Table is the only selector.
type Algo uint8

const (
	// RecursiveDoubling is the latency-optimal log2(n)-round pairwise
	// exchange (AllReduce small vectors, Scan).
	RecursiveDoubling Algo = iota
	// Ring is the bandwidth-optimal ring: ReduceScatter+AllGather for
	// AllReduce (Rabenseifner), block rotation for AllGather.
	Ring
	// Binomial is the binomial tree (Bcast, Reduce).
	Binomial
	// BinomialSeg is the segmented, pipelined binomial tree (large Bcast).
	BinomialSeg
	// Linear is the naive root loop or full exchange, kept as the reference
	// implementation every other algorithm is property-tested against.
	Linear
	// Pairwise is the pairwise exchange (AllToAll): step s trades with
	// rank±s, spreading load across distinct pairs each round.
	Pairwise
	// Dissemination is the dissemination pattern (Barrier).
	Dissemination
	// Composed is an operation built from other collectives
	// (ReduceScatter = Reduce + Scatter reference path).
	Composed

	numAlgos = int(Composed) + 1
)

var algoNames = [numAlgos]string{
	"rd", "ring", "binomial", "binomial-seg", "linear", "pairwise", "dissem", "composed",
}

// String returns the short metric-label name ("rd", "ring", ...).
func (a Algo) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// opID indexes the collective operations for headers and instruments.
type opID uint8

const (
	opBarrier opID = iota
	opBcast
	opReduce
	opAllReduce
	opGather
	opScatter
	opAllGather
	opAllToAll
	opScan
	opReduceScatter

	numOps = int(opReduceScatter) + 1
)

// opTags are the static per-operation transport tags. Operation instances
// are disambiguated by the payload header (sequence number), not the tag, so
// no strings are built per call.
var opTags = [numOps]string{
	"barrier", "bcast", "reduce", "allreduce", "gather",
	"scatter", "allgather", "alltoall", "scan", "reducescatter",
}

// Every collective payload starts with an 8-byte little-endian header:
//
//	bits 32..63  operation sequence number (per-Comm counter)
//	bits 16..31  round within the operation
//	bits  8..15  opID
//	bits  0..7   reserved
//
// Together with the static tag and source rank this uniquely matches a
// message to the (operation instance, round) a receiver is waiting on, even
// when a reordering transport delivers rounds out of order or a rooted
// operation's source races several operations ahead.
const hdrLen = 8

func hdr(seq uint32, round int, op opID) uint64 {
	return uint64(seq)<<32 | uint64(uint16(round))<<16 | uint64(op)<<8
}

func putHdr(b []byte, h uint64) { binary.LittleEndian.PutUint64(b, h) }

func matchHdr(payload []byte, h uint64) bool {
	return len(payload) >= hdrLen && binary.LittleEndian.Uint64(payload) == h
}

// Table is the per-operation algorithm dispatch table. Decisions depend only
// on values identical on every rank — the group size and, for the symmetric
// vector operations, the vector byte count — so all ranks independently pick
// the same algorithm. Thresholds are in bytes of the local vector (8 bytes
// per float64) or in group size (ranks). Forcing an algorithm is a table
// with a degenerate threshold: 0 always takes the path a threshold guards,
// math.MaxInt never does.
type Table struct {
	// AllReduceRingBytes: vectors at least this large use the ring
	// (Rabenseifner) AllReduce; smaller ones use recursive doubling.
	AllReduceRingBytes int
	// ReduceScatterRingBytes: inputs at least this large use the ring
	// reduce-scatter; smaller ones the Reduce+Scatter composition.
	ReduceScatterRingBytes int
	// BcastSegBytes: payloads at least this large use the segmented,
	// pipelined binomial broadcast with BcastSegSize-byte segments.
	BcastSegBytes int
	BcastSegSize  int
	// AllGatherRingRanks: groups at least this large use the ring AllGather.
	AllGatherRingRanks int
	// AllToAllPairwiseSize: groups at least this large use pairwise exchange.
	AllToAllPairwiseSize int
}

// DefaultTable returns the static thresholds: conservative crossovers for
// the in-memory transport.
func DefaultTable() *Table {
	return &Table{
		AllReduceRingBytes:     32 << 10,
		ReduceScatterRingBytes: 32 << 10,
		BcastSegBytes:          256 << 10,
		BcastSegSize:           64 << 10,
		AllGatherRingRanks:     5,
		AllToAllPairwiseSize:   4,
	}
}

// maxRingRanks bounds ring round numbers to the header's uint16 round field
// (2n-2 rounds per operation).
const maxRingRanks = 32000

func (t *Table) allReduceAlgo(size, bytes int) Algo {
	if size > 1 && size <= maxRingRanks && bytes >= t.AllReduceRingBytes {
		return Ring
	}
	return RecursiveDoubling
}

func (t *Table) reduceScatterAlgo(size, bytes int) Algo {
	if size > 1 && size <= maxRingRanks && bytes >= t.ReduceScatterRingBytes {
		return Ring
	}
	return Composed
}

func (t *Table) allGatherAlgo(size int) Algo {
	if size >= t.AllGatherRingRanks && size <= maxRingRanks {
		return Ring
	}
	return Linear
}

func (t *Table) allToAllAlgo(size int) Algo {
	if size >= t.AllToAllPairwiseSize {
		return Pairwise
	}
	return Linear
}
