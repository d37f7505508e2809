package rep

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/match"
)

func mustAdd(t *testing.T, r *Request, resp Response) *Answer {
	t.Helper()
	ans, err := r.Add(resp)
	if err != nil {
		t.Fatalf("Add(%+v): %v", resp, err)
	}
	return ans
}

func TestAllMatch(t *testing.T) {
	r := NewRequest(20, 4)
	var final *Answer
	for rank := 0; rank < 4; rank++ {
		final = mustAdd(t, r, Response{Rank: rank, Result: match.Match, MatchTS: 19.6})
		if rank < 3 && final != nil {
			t.Fatalf("answer formed after %d of 4 responses", rank+1)
		}
	}
	if final == nil || final.Result != match.Match || final.MatchTS != 19.6 {
		t.Fatalf("final %+v", final)
	}
	if len(final.BuddyRanks) != 0 {
		t.Errorf("buddy ranks %v for all-MATCH", final.BuddyRanks)
	}
	if !r.decided {
		t.Error("not decided")
	}
}

func TestAllNoMatch(t *testing.T) {
	r := NewRequest(20, 3)
	mustAdd(t, r, Response{Rank: 0, Result: match.NoMatch})
	mustAdd(t, r, Response{Rank: 2, Result: match.NoMatch})
	final := mustAdd(t, r, Response{Rank: 1, Result: match.NoMatch})
	if final == nil || final.Result != match.NoMatch || len(final.BuddyRanks) != 0 {
		t.Fatalf("final %+v", final)
	}
}

func TestAllPendingThenUpdates(t *testing.T) {
	r := NewRequest(20, 3)
	for rank := 0; rank < 3; rank++ {
		if ans := mustAdd(t, r, Response{Rank: rank, Result: match.Pending, Latest: 14.6}); ans != nil {
			t.Fatal("answer from all-PENDING")
		}
	}
	if r.decided {
		t.Fatal("decided while all pending")
	}
	// Rank 1 advances and re-responds with MATCH.
	final := mustAdd(t, r, Response{Rank: 1, Result: match.Match, MatchTS: 19.6})
	if final == nil || final.Result != match.Match {
		t.Fatalf("final %+v", final)
	}
	if !reflect.DeepEqual(final.BuddyRanks, []int{0, 2}) {
		t.Errorf("buddy ranks %v, want [0 2]", final.BuddyRanks)
	}
}

func TestPendingMatchMixture(t *testing.T) {
	// The paper's key legal mixture: the fastest process answers MATCH, the
	// slow ones PENDING; the collective answer is MATCH and the pending
	// processes get buddy-help.
	r := NewRequest(20, 4)
	mustAdd(t, r, Response{Rank: 3, Result: match.Match, MatchTS: 19.6})
	mustAdd(t, r, Response{Rank: 0, Result: match.Pending})
	mustAdd(t, r, Response{Rank: 1, Result: match.Pending})
	final := mustAdd(t, r, Response{Rank: 2, Result: match.Pending})
	if final == nil || final.Result != match.Match || final.MatchTS != 19.6 {
		t.Fatalf("final %+v", final)
	}
	if !reflect.DeepEqual(final.BuddyRanks, []int{0, 1, 2}) {
		t.Errorf("buddy ranks %v", final.BuddyRanks)
	}
}

func TestPendingNoMatchMixture(t *testing.T) {
	r := NewRequest(20, 2)
	mustAdd(t, r, Response{Rank: 0, Result: match.Pending})
	final := mustAdd(t, r, Response{Rank: 1, Result: match.NoMatch})
	if final == nil || final.Result != match.NoMatch {
		t.Fatalf("final %+v", final)
	}
	if !reflect.DeepEqual(final.BuddyRanks, []int{0}) {
		t.Errorf("buddy ranks %v", final.BuddyRanks)
	}
}

func TestMatchNoMatchMixtureIsViolation(t *testing.T) {
	r := NewRequest(20, 2)
	mustAdd(t, r, Response{Rank: 0, Result: match.Match, MatchTS: 19.6})
	_, err := r.Add(Response{Rank: 1, Result: match.NoMatch})
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want ViolationError", err)
	}
}

func TestDisagreeingMatchTimestampsIsViolation(t *testing.T) {
	r := NewRequest(20, 3)
	mustAdd(t, r, Response{Rank: 0, Result: match.Match, MatchTS: 19.6})
	_, err := r.Add(Response{Rank: 1, Result: match.Match, MatchTS: 18.6})
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want ViolationError", err)
	}
}

func TestLateDecisiveMustAgree(t *testing.T) {
	r := NewRequest(20, 2)
	mustAdd(t, r, Response{Rank: 0, Result: match.Match, MatchTS: 19.6})
	final := mustAdd(t, r, Response{Rank: 1, Result: match.Pending})
	if final == nil {
		t.Fatal("no final")
	}
	// Rank 1 later decides consistently: fine.
	if _, err := r.Add(Response{Rank: 1, Result: match.Match, MatchTS: 19.6}); err != nil {
		t.Fatalf("consistent late answer rejected: %v", err)
	}
	// A second late answer flipping is a violation.
	if _, err := r.Add(Response{Rank: 1, Result: match.NoMatch}); err == nil {
		t.Error("flipped late answer accepted")
	}
}

func TestLateDecisiveDisagreeingViolation(t *testing.T) {
	r := NewRequest(20, 2)
	mustAdd(t, r, Response{Rank: 0, Result: match.NoMatch})
	final := mustAdd(t, r, Response{Rank: 1, Result: match.Pending})
	if final == nil || final.Result != match.NoMatch {
		t.Fatal("bad final")
	}
	if _, err := r.Add(Response{Rank: 1, Result: match.Match, MatchTS: 19}); err == nil {
		t.Error("late disagreeing answer accepted")
	}
}

func TestDecidedProcessCannotFlip(t *testing.T) {
	r := NewRequest(20, 2)
	mustAdd(t, r, Response{Rank: 0, Result: match.Match, MatchTS: 19.6})
	if _, err := r.Add(Response{Rank: 0, Result: match.NoMatch}); err == nil {
		t.Error("flip accepted")
	}
	if _, err := r.Add(Response{Rank: 0, Result: match.Match, MatchTS: 18}); err == nil {
		t.Error("re-match with new timestamp accepted")
	}
	// Identical repeat is harmless.
	if _, err := r.Add(Response{Rank: 0, Result: match.Match, MatchTS: 19.6}); err != nil {
		t.Errorf("identical repeat rejected: %v", err)
	}
}

func TestRankValidation(t *testing.T) {
	r := NewRequest(20, 2)
	if _, err := r.Add(Response{Rank: -1}); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := r.Add(Response{Rank: 2}); err == nil {
		t.Error("rank >= n accepted")
	}
}

func TestAnswerFormedExactlyOnce(t *testing.T) {
	r := NewRequest(20, 3)
	mustAdd(t, r, Response{Rank: 0, Result: match.Pending})
	mustAdd(t, r, Response{Rank: 1, Result: match.Pending})
	final := mustAdd(t, r, Response{Rank: 2, Result: match.Match, MatchTS: 5})
	if final == nil {
		t.Fatal("no final")
	}
	// Pending ranks updating afterwards must not re-form the answer.
	if ans := mustAdd(t, r, Response{Rank: 0, Result: match.Match, MatchTS: 5}); ans != nil {
		t.Error("answer formed twice")
	}
	if got := r.final; got.Result != match.Match || got.MatchTS != 5 {
		t.Errorf("final = %+v", got)
	}
	if r.reqTS != 20 {
		t.Errorf("reqTS %v", r.reqTS)
	}
}

// TestLaggard: the answer blames the rank whose last response reported the
// strictly smallest Latest when the answer formed, and nobody on a tie.
func TestLaggard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		resps []Response
		want  int
	}{
		{"single process", 1, []Response{
			{Rank: 0, Result: match.Match, MatchTS: 19, Latest: 19},
		}, 0},
		{"all equal", 3, []Response{
			{Rank: 0, Result: match.Match, MatchTS: 19, Latest: 20},
			{Rank: 1, Result: match.Match, MatchTS: 19, Latest: 20},
			{Rank: 2, Result: match.Match, MatchTS: 19, Latest: 20},
		}, -1},
		{"pending laggard", 4, []Response{
			{Rank: 3, Result: match.Match, MatchTS: 19.6, Latest: 21},
			{Rank: 0, Result: match.Match, MatchTS: 19.6, Latest: 20},
			{Rank: 1, Result: match.Pending, Latest: 14.6},
			{Rank: 2, Result: match.Pending, Latest: 17},
		}, 1},
		{"tie for last", 3, []Response{
			{Rank: 0, Result: match.Pending, Latest: 12},
			{Rank: 1, Result: match.Pending, Latest: 12},
			{Rank: 2, Result: match.NoMatch, Latest: 30},
		}, -1},
		{"no exports yet", 2, []Response{
			{Rank: 0, Result: match.Pending, Latest: match.NoExports},
			{Rank: 1, Result: match.NoMatch, Latest: 30},
		}, 0},
		{"re-response raises the laggard", 3, []Response{
			{Rank: 0, Result: match.Pending, Latest: 5},
			{Rank: 1, Result: match.Match, MatchTS: 19, Latest: 20},
			{Rank: 0, Result: match.Pending, Latest: 8},
			{Rank: 2, Result: match.Match, MatchTS: 19, Latest: 7},
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRequest(20, tc.n)
			var final *Answer
			for i, resp := range tc.resps {
				ans := mustAdd(t, r, resp)
				if ans != nil && i != len(tc.resps)-1 {
					t.Fatalf("answer formed after response %d of %d", i+1, len(tc.resps))
				}
				final = ans
			}
			if final == nil {
				t.Fatal("no answer formed")
			}
			if final.Laggard != tc.want || r.final.Laggard != tc.want {
				t.Fatalf("Laggard = %d (final %d), want %d", final.Laggard, r.final.Laggard, tc.want)
			}
		})
	}
}

func TestViolationErrorMessage(t *testing.T) {
	e := &ViolationError{ReqTS: 20, Detail: "boom"}
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

// TestPropertyRandomLegalSchedules: generate random legal response schedules
// (a ground-truth decisive answer, each rank either answering it directly or
// answering PENDING first, each response reporting a random Latest) and
// assert the aggregate always forms exactly one answer matching the ground
// truth, with buddy ranks = ranks still pending and the laggard the strict
// argmin of the Latest values last reported.
func TestPropertyRandomLegalSchedules(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		truth := match.Match
		truthTS := 10 + rng.Float64()
		if rng.Intn(2) == 0 {
			truth = match.NoMatch
			truthTS = 0
		}
		slow := make([]bool, n) // answers PENDING first
		anySlowFirst := false
		for i := range slow {
			slow[i] = rng.Intn(2) == 0
			if slow[i] {
				anySlowFirst = true
			}
		}
		_ = anySlowFirst

		r := NewRequest(20, n)
		order := rng.Perm(n)
		var got *Answer
		pendingAtDecision := map[int]bool{}
		// latest is what each rank last reported; the argmin is taken when
		// the answer forms. Small integers make ties common.
		latest := make([]float64, n)
		wantLaggard := -2
		add := func(resp Response) *Answer {
			resp.Latest = float64(rng.Intn(4))
			latest[resp.Rank] = resp.Latest
			ans, err := r.Add(resp)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if ans != nil && got == nil {
				least := slices.Min(latest)
				wantLaggard = slices.Index(latest, least)
				if slices.IndexFunc(latest[wantLaggard+1:], func(l float64) bool { return l == least }) >= 0 {
					wantLaggard = -1 // a tie blames nobody
				}
			}
			return ans
		}
		for _, rank := range order {
			resp := Response{Rank: rank, Result: truth, MatchTS: truthTS}
			if slow[rank] {
				resp = Response{Rank: rank, Result: match.Pending}
			}
			if ans := add(resp); ans != nil {
				if got != nil {
					t.Fatalf("seed %d: two answers", seed)
				}
				got = ans
				for rk := range slow {
					if slow[rk] {
						pendingAtDecision[rk] = true
					}
				}
			}
		}
		// Slow ranks now catch up.
		for rank := range slow {
			if !slow[rank] {
				continue
			}
			ans := add(Response{Rank: rank, Result: truth, MatchTS: truthTS})
			if got == nil && ans != nil {
				got = ans
			} else if got != nil && ans != nil {
				t.Fatalf("seed %d: answer re-formed", seed)
			}
		}
		allSlow := true
		for _, s := range slow {
			if !s {
				allSlow = false
			}
		}
		if got == nil {
			t.Fatalf("seed %d: no answer formed (allSlow=%v)", seed, allSlow)
		}
		if got.Result != truth || (truth == match.Match && got.MatchTS != truthTS) {
			t.Fatalf("seed %d: answer %+v, truth %v/%g", seed, got, truth, truthTS)
		}
		for _, rk := range got.BuddyRanks {
			if !slow[rk] {
				t.Fatalf("seed %d: buddy rank %d was not pending", seed, rk)
			}
		}
		if got.Laggard != wantLaggard {
			t.Fatalf("seed %d: Laggard %d, want %d (latest %v)", seed, got.Laggard, wantLaggard, latest)
		}
	}
}
