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
	// 11 answered requests blame rank 2, rank 1 once with less wait; one
	// tie is unattributed, and votes outside the program count as none.
	for i := 0; i < 11; i++ {
		b.Note(2, 1_000_000)
	}
	b.Note(1, 50_000)
	b.Note(-1, 7_000)
	b.Note(4, 7_000)
	s := b.Snapshot()
	if s.Ops != 14 || s.Unattributed != 2 || s.Attributed() != 12 {
		t.Fatalf("counts: %+v", s)
	}
	if f := s.Fraction(2); f != 11.0/12 {
		t.Fatalf("Fraction(2) = %v, want 11/12", f)
	}
	if s.Ranks[2].WaitNS != 11_000_000 || s.Ranks[1].WaitNS != 50_000 {
		t.Fatalf("waits: %+v", s.Ranks)
	}
	top := s.Top(1)
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
		len(payload.Programs[0].Top) != 2 || payload.Programs[0].Top[0].Rank != 2 ||
		strings.Contains(rec.Body.String(), "xfer_ns") {
		t.Fatalf("payload: %s", rec.Body.String())
	}
}

// TestBoardCountsEachOpOnce: the rep notes one vote per answered request,
// and each is counted exactly once while /statusz and /diag/stragglers
// readers snapshot the board concurrently.
func TestBoardCountsEachOpOnce(t *testing.T) {
	const ranks, ops, readers = 8, 4000, 4
	b := NewBoard("G", ranks)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				s := b.Snapshot()
				var blamed uint64
				for _, r := range s.Ranks {
					blamed += r.BlamedOps
				}
				if s.Ops < last || blamed != s.Attributed() {
					t.Errorf("torn snapshot: ops %d after %d, %d blamed of %d attributed", s.Ops, last, blamed, s.Attributed())
					return
				}
				last = s.Ops
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < ops; i++ {
		b.Note(i%(ranks+1)-1, 1000) // every ninth vote is unattributed
	}
	close(done)
	wg.Wait()
	s := b.Snapshot()
	if s.Ops != ops || s.Unattributed != ops/(ranks+1)+1 {
		t.Fatalf("ops = %d (%d unattributed), want %d (%d)", s.Ops, s.Unattributed, ops, ops/(ranks+1)+1)
	}
	for _, r := range s.Ranks {
		if r.WaitNS != int64(r.BlamedOps)*1000 {
			t.Fatalf("rank %d: %d blamed with wait %d", r.Rank, r.BlamedOps, r.WaitNS)
		}
	}
}
