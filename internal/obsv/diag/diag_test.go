package diag

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestBoardAttributionAndHandler(t *testing.T) {
	b := NewBoard("F", 4)
	// 10 ops: three ranks blame rank 2, rank 3 saw nothing — the per-op
	// election must settle on rank 2 every time.
	for seq := uint32(0); seq < 10; seq++ {
		for rank := 0; rank < 3; rank++ {
			b.Note(seq, rank, 2, 1_000_000, 5_000)
		}
		b.Note(seq, 3, -1, 0, 0)
	}
	// One op where a small noise vote for rank 1 loses to the direct 1ms
	// observation of rank 2.
	b.Note(10, 0, 1, 50_000, 0)
	b.Note(10, 1, 2, 1_000_000, 0)
	b.Note(10, 2, -1, 0, 0)
	b.Note(10, 3, -1, 0, 0)
	// A still-gathering op with only unattributed votes so far.
	b.Note(11, 2, -1, 0, 0)
	s := b.Snapshot()
	if s.Ops != 12 || s.Unattributed != 1 || s.Attributed() != 11 {
		t.Fatalf("counts: %+v", s)
	}
	if f := s.Fraction(2); f != 1.0 {
		t.Fatalf("Fraction(2) = %v, want 1", f)
	}
	top := s.Top(2)
	if len(top) != 1 || top[0].Rank != 2 || top[0].BlamedOps != 11 {
		t.Fatalf("Top = %+v", top)
	}
	var status bytes.Buffer
	b.WriteStatus(&status)
	if !strings.Contains(status.String(), "straggler rank 2") {
		t.Fatalf("status missing straggler: %q", status.String())
	}

	h := Handler(3, func() []*Board { return []*Board{b, nil} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/diag/stragglers", nil))
	var payload struct {
		Programs []struct {
			Program string     `json:"program"`
			Ops     uint64     `json:"ops"`
			Top     []RankStat `json:"top"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(payload.Programs) != 1 || payload.Programs[0].Program != "F" ||
		len(payload.Programs[0].Top) != 1 || payload.Programs[0].Top[0].Rank != 2 {
		t.Fatalf("payload: %s", rec.Body.String())
	}
}

// TestBoardCountsEachOpOnce: ranks racing to claim a slot for the same op
// must commit it once. A vote that slipped in between another rank's claim
// and its reset was once committed as a finished op the slot never held, and
// the op's remaining votes were counted again by Snapshot: 41 ops for 40.
func TestBoardCountsEachOpOnce(t *testing.T) {
	const ranks, ops = 8, 40
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for round := 0; round < rounds; round++ {
		b := NewBoard("G", ranks)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for seq := uint32(0); seq < ops; seq++ {
					b.Note(seq, r, 1, 1000, 0)
				}
			}(r)
		}
		close(start)
		wg.Wait()
		if s := b.Snapshot(); s.Ops != ops {
			t.Fatalf("round %d: ops = %d, want %d", round, s.Ops, ops)
		}
	}
}
