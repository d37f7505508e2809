// Package diag answers the paper's operator question: which exporter
// process is the slow one, p_s, and what is it costing. Its straggler Board
// is fed by a program's representative, which blames, for every import
// request it answers, the process whose response reported the oldest latest
// export (package rep, Answer.Laggard), weighted by the time the answer
// waited. The protocol's recent events are the flt.* spans on the span
// rings (package obsv), not kept here.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Board accumulates straggler attribution for one program's process group:
// one vote per answered import request. Its one writer is the program's rep
// goroutine; the mutex serves the snapshot readers (/statusz,
// /diag/stragglers).
type Board struct {
	program string

	mu      sync.Mutex
	ops     uint64 // answered requests noted
	unattr  uint64 // noted with no rank blamed
	perRank []rankAgg
}

type rankAgg struct {
	blamed uint64 // requests that blamed this rank
	wait   int64  // cumulative wait (ns) attributed to this rank
}

// NewBoard returns a straggler board for a size-rank program.
func NewBoard(program string, size int) *Board {
	return &Board{program: program, perRank: make([]rankAgg, size)}
}

// Note records the vote on one answered request: blamed is the rank whose
// lag held the answer back (-1, or any rank outside the program, = nobody),
// waitNS how long the answer waited from the request's first response.
// Safe on a nil board.
func (b *Board) Note(blamed int, waitNS int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops++
	if blamed < 0 || blamed >= len(b.perRank) {
		b.unattr++
		return
	}
	b.perRank[blamed].blamed++
	b.perRank[blamed].wait += waitNS
}

// RankStat is one rank's row in a board snapshot.
type RankStat struct {
	Rank      int    `json:"rank"`
	BlamedOps uint64 `json:"blamed_ops"`
	WaitNS    int64  `json:"wait_ns"`
}

// Snapshot is a point-in-time copy of a board.
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
	s := Snapshot{Program: b.program, Ops: b.ops, Unattributed: b.unattr, Ranks: make([]RankStat, len(b.perRank))}
	for i, r := range b.perRank {
		s.Ranks[i] = RankStat{Rank: i, BlamedOps: r.blamed, WaitNS: r.wait}
	}
	return s
}

// Attributed returns the number of requests that blamed some rank.
func (s Snapshot) Attributed() uint64 { return s.Ops - s.Unattributed }

// Fraction returns the share of attributed requests that blamed rank.
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

// WriteStatus renders the board as the head of a /statusz "diag:" section:
// the request totals and the top-3 stragglers by cumulative wait.
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

// programStragglers is one program's entry in the /diag/stragglers JSON.
type programStragglers struct {
	Program      string     `json:"program"`
	Ops          uint64     `json:"ops"`
	Unattributed uint64     `json:"unattributed"`
	Top          []RankStat `json:"top"`
}

// Handler serves the /diag/stragglers endpoint: for every board returned by
// the boards closure (evaluated per request, so late-wired programs appear),
// the top-k ranks by cumulative attributed wait, as JSON.
func Handler(k int, boards func() []*Board) http.Handler {
	if k <= 0 {
		k = 5
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var payload struct {
			Programs []programStragglers `json:"programs"`
		}
		for _, b := range boards() {
			if b == nil {
				continue
			}
			s := b.Snapshot()
			payload.Programs = append(payload.Programs, programStragglers{
				Program: s.Program, Ops: s.Ops, Unattributed: s.Unattributed, Top: s.Top(k),
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
