// Package diag is the coupling-aware diagnosis layer: it turns the flat
// latency histograms of the observability layer into an answer to "who was
// the straggler and where did the time go".
//
// The straggler Board accumulates the per-collective critical-path
// attribution that internal/collective piggybacks on its own round payloads
// (zero extra messages): for every finished operation each rank learns the
// blamed rank and its wait/transfer split, and Note()s them here. The
// protocol's recent events live on the span rings as flt.* spans (package
// obsv), not here.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Board accumulates straggler attribution for one program's process group.
// Every rank Note()s the outcome of every collective operation it finishes
// — which rank the piggybacked fold blamed, with what critical-path wait —
// and the board commits one consensus verdict per operation: the vote
// carrying the largest wait. The fold word is a max-reduction, so any vote
// is a lower bound on the op's true critical-path wait and the largest vote
// is the closest; ranks whose causal cone missed the discovery (a wait
// found in round r only reaches 2^(R-r) peers before the op ends) merely
// lose the per-op election to the rank that measured it directly.
//
// Note is the tail of every collective on every rank, and all ranks of a
// lock-step group arrive at it near-simultaneously, so the vote path is
// contention-free: votes gather in a slot ring through atomics (a counter
// and a max-CAS election word), each rank's transfer aggregate has a single
// writer, and the board mutex is taken once per operation — by whichever
// rank first moves a slot to a newer op and commits the finished one, plus
// by the ranks that race it there — and by the (rare) snapshot reader.
type Board struct {
	program string
	size    int

	slots [boardSlots]opSlot

	mu      sync.Mutex
	ops     uint64 // committed operations
	unattr  uint64 // committed with no rank blamed
	perRank []rankAgg
}

// boardSlots is the in-flight operation window: votes for an op gather in
// slot seq%boardSlots and commit when the slot is claimed by a newer op;
// still-gathering slots are folded read-only into snapshots.
const boardSlots = 64

// opSlot gathers one in-flight operation's votes. best holds the current
// election winner packed as wait<<16 | uint16(rank); real votes always carry
// wait >= the attribution noise floor, so 0 doubles as "no vote yet" and the
// packing is monotone — a larger word is a larger wait — which makes the
// election a single max-CAS.
type opSlot struct {
	seq   atomic.Uint32
	votes atomic.Int32
	best  atomic.Uint64
}

type rankAgg struct {
	blamedOps uint64       // ops whose consensus blamed this rank (under mu)
	waitNS    int64        // cumulative consensus wait attributed to this rank (under mu)
	xferNS    atomic.Int64 // cumulative transfer time observed by this rank (single writer)
}

// NewBoard returns a straggler board for a size-rank program.
func NewBoard(program string, size int) *Board {
	return &Board{program: program, size: size, perRank: make([]rankAgg, size)}
}

// seqBefore reports whether a is older than b in wraparound order.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Program returns the program the board belongs to.
func (b *Board) Program() string {
	if b == nil {
		return ""
	}
	return b.program
}

// Note records one rank's verdict on one finished collective operation:
// seq identifies the op (the group's shared sequence counter), blamed is
// the rank this rank's fold converged on (-1 = nobody cleared the noise
// floor), maxWait that rank's critical-path wait, and xferNS the noting
// rank's own accumulated transfer time. Safe on a nil board.
func (b *Board) Note(seq uint32, rank, blamed int, maxWait, xferNS int64) {
	if b == nil {
		return
	}
	if rank >= 0 && rank < len(b.perRank) {
		b.perRank[rank].xferNS.Add(xferNS)
	}
	s := &b.slots[seq%boardSlots]
	if s.seq.Load() != seq && !b.claim(s, seq) {
		return
	}
	s.votes.Add(1)
	if blamed >= 0 && blamed < b.size && maxWait > 0 {
		word := uint64(maxWait)<<16 | uint64(uint16(blamed))
		for {
			cur := s.best.Load()
			if word <= cur || s.best.CompareAndSwap(cur, word) {
				break
			}
		}
	}
}

// claim moves slot s to op seq under the board mutex: the finished op's
// votes are committed, the slot reset, and only then is the new seq
// published, so a vote for seq lands either in the fresh slot or (waiting on
// the mutex) after it — never in the finished op's count. It reports false
// for a vote the slot has already moved past: the group skewed by a whole
// window, and the op was committed (or lost) when the slot was reclaimed.
func (b *Board) claim(s *opSlot, seq uint32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := s.seq.Load()
	if cur == seq || seqBefore(seq, cur) {
		return cur == seq // another rank claimed it first, or a stale vote
	}
	votes, best := s.votes.Swap(0), s.best.Swap(0)
	if votes > 0 {
		b.commit(best)
	}
	s.seq.Store(seq)
	return true
}

// commit turns a reclaimed slot's election word into one per-op verdict.
// Called with b.mu held.
func (b *Board) commit(best uint64) {
	b.ops++
	if best != 0 {
		r := int(uint16(best))
		b.perRank[r].blamedOps++
		b.perRank[r].waitNS += int64(best >> 16)
	} else {
		b.unattr++
	}
}

// RankStat is one rank's row in a board snapshot.
type RankStat struct {
	Rank      int    `json:"rank"`
	BlamedOps uint64 `json:"blamed_ops"`
	WaitNS    int64  `json:"wait_ns"`
	XferNS    int64  `json:"xfer_ns"`
}

// Snapshot is a point-in-time copy of a board, including the verdicts of
// operations whose votes are still gathering (evaluated, not committed).
type Snapshot struct {
	Program      string     `json:"program"`
	Ops          uint64     `json:"ops"`
	Unattributed uint64     `json:"unattributed"`
	Ranks        []RankStat `json:"ranks"`
}

// Snapshot copies the board's current state.
func (b *Board) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{
		Program:      b.program,
		Ops:          b.ops,
		Unattributed: b.unattr,
		Ranks:        make([]RankStat, len(b.perRank)),
	}
	for i := range b.perRank {
		r := &b.perRank[i]
		s.Ranks[i] = RankStat{Rank: i, BlamedOps: r.blamedOps, WaitNS: r.waitNS, XferNS: r.xferNS.Load()}
	}
	// Fold in the still-gathering slots so the freshest ops are visible.
	for i := range b.slots {
		sl := &b.slots[i]
		if sl.votes.Load() <= 0 {
			continue
		}
		s.Ops++
		if best := sl.best.Load(); best != 0 {
			r := int(uint16(best))
			s.Ranks[r].BlamedOps++
			s.Ranks[r].WaitNS += int64(best >> 16)
		} else {
			s.Unattributed++
		}
	}
	return s
}

// Attributed returns the number of ops whose consensus blamed some rank.
func (s Snapshot) Attributed() uint64 { return s.Ops - s.Unattributed }

// Fraction returns the share of attributed ops that blamed rank — the
// straggler-detection hit rate the acceptance gate checks.
func (s Snapshot) Fraction(rank int) float64 {
	att := s.Attributed()
	if att == 0 || rank < 0 || rank >= len(s.Ranks) {
		return 0
	}
	return float64(s.Ranks[rank].BlamedOps) / float64(att)
}

// Top returns up to k ranks ordered by cumulative attributed wait,
// dropping ranks never blamed.
func (s Snapshot) Top(k int) []RankStat {
	top := make([]RankStat, 0, len(s.Ranks))
	for _, r := range s.Ranks {
		if r.BlamedOps > 0 {
			top = append(top, r)
		}
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].WaitNS > top[j].WaitNS })
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// WriteStatus renders the board as a /statusz "diag:" section: the op
// totals and the top-3 stragglers by cumulative wait.
func (b *Board) WriteStatus(w io.Writer) {
	if b == nil {
		return
	}
	s := b.Snapshot()
	fmt.Fprintf(w, "    ops=%d attributed=%d unattributed=%d\n", s.Ops, s.Attributed(), s.Unattributed)
	for _, r := range s.Top(3) {
		fmt.Fprintf(w, "    straggler rank %d: blamed=%d (%.0f%%) wait=%v\n",
			r.Rank, r.BlamedOps, 100*s.Fraction(r.Rank), time.Duration(r.WaitNS))
	}
}

// stragglersPayload is the /diag/stragglers JSON shape.
type stragglersPayload struct {
	Programs []programStragglers `json:"programs"`
}

type programStragglers struct {
	Program      string     `json:"program"`
	Ops          uint64     `json:"ops"`
	Unattributed uint64     `json:"unattributed"`
	Top          []RankStat `json:"top"`
}

// Handler serves the /diag/stragglers endpoint: for every board returned by
// the boards closure (evaluated per request, so late-wired programs appear),
// the rolling top-k ranks by cumulative attributed wait, as JSON.
func Handler(k int, boards func() []*Board) http.Handler {
	if k <= 0 {
		k = 5
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var payload stragglersPayload
		for _, b := range boards() {
			if b == nil {
				continue
			}
			s := b.Snapshot()
			payload.Programs = append(payload.Programs, programStragglers{
				Program:      s.Program,
				Ops:          s.Ops,
				Unattributed: s.Unattributed,
				Top:          s.Top(k),
			})
		}
		sort.Slice(payload.Programs, func(i, j int) bool {
			return payload.Programs[i].Program < payload.Programs[j].Program
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
}
