package buffer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/obsv"
)

func newManager(t *testing.T, p match.Policy, tol float64, ring *obsv.Ring) *Manager {
	t.Helper()
	m, err := NewManager(Config{Policy: p, Tol: tol, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// payload builds a small distinguishable data object for timestamp ts.
func payload(ts float64) []float64 { return []float64{ts, ts * 2, ts * 3} }

func offer(t *testing.T, m *Manager, ts float64) OfferResult {
	t.Helper()
	res, err := m.Offer(ts, payload(ts))
	if err != nil {
		t.Fatalf("Offer(%g): %v", ts, err)
	}
	return res
}

func sendRequest(t *testing.T, m *Manager, x float64) RequestResult {
	t.Helper()
	res, err := m.OnRequest(x)
	if err != nil {
		t.Fatalf("OnRequest(%g): %v", x, err)
	}
	return res
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{Policy: match.REGL, Tol: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestNoRequestsBuffersEverything(t *testing.T) {
	m := newManager(t, match.REGL, 2.5, nil)
	for ts := 1.0; ts <= 10; ts++ {
		res := offer(t, m, ts)
		if !res.Buffered {
			t.Fatalf("export %g not buffered with no requests", ts)
		}
	}
	if m.NumBuffered() != 10 {
		t.Errorf("buffered %d, want 10", m.NumBuffered())
	}
	st := m.Stats()
	if st.Copies != 10 || st.Skips != 0 || st.Exports != 10 {
		t.Errorf("stats %+v", st)
	}
}

func TestDecreasingExportRejected(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	offer(t, m, 5)
	if _, err := m.Offer(5, payload(5)); err == nil {
		t.Error("repeated timestamp accepted")
	}
	if _, err := m.Offer(4, payload(4)); err == nil {
		t.Error("decreasing timestamp accepted")
	}
}

func TestDecreasingRequestRejected(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	sendRequest(t, m, 10)
	if _, err := m.OnRequest(10); err == nil {
		t.Error("repeated request accepted")
	}
	if _, err := m.OnRequest(9); err == nil {
		t.Error("decreasing request accepted")
	}
}

// TestImporterSlower reproduces the Figure 3(a)/4(a) regime: requests trail
// exports, every export beyond the known horizon is buffered, and old
// buffered objects are freed (unsent, except matches) as requests arrive.
func TestImporterSlower(t *testing.T) {
	m := newManager(t, match.REGL, 2.5, nil)
	for ts := 1.6; ts < 20; ts++ {
		if res := offer(t, m, ts); !res.Buffered {
			t.Fatalf("export %g skipped in importer-slower regime", ts)
		}
	}
	// Request far behind the exports: immediate match.
	res := sendRequest(t, m, 10)
	if res.Decision.Result != match.Match || res.Decision.MatchTS != 9.6 {
		t.Fatalf("decision %v, want MATCH D@9.6", res.Decision)
	}
	if len(res.Sends) != 1 || res.Sends[0].MatchTS != 9.6 {
		t.Fatalf("sends %v", res.Sends)
	}
	// Everything at or below the region's lower bound (7.5) is freed, plus
	// in-region losers dominated by the match.
	if m.Buffered(1.6) || m.Buffered(7.6) || m.Buffered(8.6) {
		t.Error("dominated entries not freed after match")
	}
	for ts := 10.6; ts < 20; ts++ {
		if !m.Buffered(ts) {
			t.Errorf("beyond-horizon entry %g freed prematurely", ts)
		}
	}
}

// TestScenarioFigure7 replays the paper's Figure 7 line by line: REGL,
// tolerance 5.0, buddy-help on. The match D@9.6 is known before the slow
// process exports past 4.6, so every non-match export up to the region is
// skipped.
func TestScenarioFigure7(t *testing.T) {
	ring := newFigureRing()
	m := newManager(t, match.REGL, 5, ring)

	offer(t, m, 1.6) // call memcpy
	offer(t, m, 2.6) // call memcpy
	offer(t, m, 3.6) // call memcpy
	res := sendRequest(t, m, 10.0)
	if res.Decision.Result != match.Pending || res.Decision.Latest != 3.6 {
		t.Fatalf("reply %v, want PENDING latest 3.6", res.Decision)
	}
	// Buffered 1.6..3.6 all lie below the region's lower bound 5.0: removed.
	if m.NumBuffered() != 0 {
		t.Fatalf("%d entries retained after request", m.NumBuffered())
	}
	// Buddy-help: the final answer is MATCH D@9.6.
	sends, err := m.OnFinal(res.ReqIndex, match.Match, 9.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sends) != 0 {
		t.Fatalf("premature send %v", sends)
	}
	// Lines 8-11: 4.6 (below region) and 5.6..8.6 (non-match, dominated by
	// the known match) all skip memcpy.
	for _, ts := range []float64{4.6, 5.6, 6.6, 7.6, 8.6} {
		if r := offer(t, m, ts); r.Buffered {
			t.Errorf("export %g buffered, want skip", ts)
		}
	}
	// Lines 12-14: the match itself is buffered and sent.
	r := offer(t, m, 9.6)
	if !r.Buffered || len(r.Sends) != 1 || r.Sends[0].MatchTS != 9.6 {
		t.Fatalf("match export outcome %+v", r)
	}
	// Line 15: 10.6 is beyond the region: buffered for future requests.
	if r := offer(t, m, 10.6); !r.Buffered {
		t.Error("export 10.6 not buffered")
	}

	wantFigureLines(t, ring,
		"export D@1.6, call memcpy.",
		"export D@2.6, call memcpy.",
		"export D@3.6, call memcpy.",
		"receive request for D@10.",
		"reply {D@10, PENDING, D@3.6}.",
		"remove D@1.6, ..., D@3.6.",
		"receive buddy-help {D@10, MATCH, D@9.6}.",
		"export D@4.6, skip memcpy.",
		"export D@5.6, skip memcpy.",
		"export D@6.6, skip memcpy.",
		"export D@7.6, skip memcpy.",
		"export D@8.6, skip memcpy.",
		"export D@9.6, call memcpy.",
		"send D@9.6 out.",
		"export D@10.6, call memcpy.",
	)
	// The only memcpys in the region's span are 1.6-3.6 (pre-request) and
	// the match; unnecessary copies = the three pre-request ones.
	st := m.Stats()
	if st.Copies != 5 || st.Skips != 5 || st.Sends != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.UnnecessaryCopies != 3 {
		t.Errorf("unnecessary copies %d, want 3", st.UnnecessaryCopies)
	}
}

// TestScenarioFigure8 replays Figure 8: same configuration but WITHOUT
// buddy-help (no OnFinal). Every in-region export becomes the new best
// candidate and is buffered; the previous candidate is freed; the match is
// only decided when an export passes the region.
func TestScenarioFigure8(t *testing.T) {
	ring := newFigureRing()
	m := newManager(t, match.REGL, 5, ring)

	offer(t, m, 1.6)
	offer(t, m, 2.6)
	offer(t, m, 3.6)
	res := sendRequest(t, m, 10.0)
	if res.Decision.Result != match.Pending {
		t.Fatalf("reply %v", res.Decision)
	}
	// Line 7: 4.6 below the region: skip.
	if r := offer(t, m, 4.6); r.Buffered {
		t.Error("4.6 buffered")
	}
	// Lines 8-18: each in-region export is buffered and displaces the
	// previous candidate.
	for _, ts := range []float64{5.6, 6.6, 7.6, 8.6, 9.6} {
		r := offer(t, m, ts)
		if !r.Buffered {
			t.Fatalf("candidate %g not buffered", ts)
		}
		if m.NumBuffered() != 1 {
			t.Fatalf("after %g: %d entries, want 1 (old candidate freed)", ts, m.NumBuffered())
		}
		if len(r.Resolutions) != 0 {
			t.Fatalf("premature resolution at %g: %v", ts, r.Resolutions)
		}
	}
	// Lines 19-21: 10.6 passes the region; the match D@9.6 is decided and
	// sent; 10.6 itself is buffered (beyond the region).
	r := offer(t, m, 10.6)
	if !r.Buffered {
		t.Error("10.6 not buffered")
	}
	if len(r.Resolutions) != 1 || r.Resolutions[0].Decision.Result != match.Match ||
		r.Resolutions[0].Decision.MatchTS != 9.6 {
		t.Fatalf("resolutions %v", r.Resolutions)
	}
	if len(r.Sends) != 1 || r.Sends[0].MatchTS != 9.6 {
		t.Fatalf("sends %v", r.Sends)
	}
	wantFigureLines(t, ring,
		"export D@1.6, call memcpy.",
		"export D@2.6, call memcpy.",
		"export D@3.6, call memcpy.",
		"receive request for D@10.",
		"reply {D@10, PENDING, D@3.6}.",
		"remove D@1.6, ..., D@3.6.",
		"export D@4.6, skip memcpy.",
		"export D@5.6, call memcpy.",
		"export D@6.6, call memcpy.",
		"remove D@5.6.",
		"export D@7.6, call memcpy.",
		"remove D@6.6.",
		"export D@8.6, call memcpy.",
		"remove D@7.6.",
		"export D@9.6, call memcpy.",
		"remove D@8.6.",
		"reply {D@10, MATCH, D@9.6}.",
		"send D@9.6 out.",
		"export D@10.6, call memcpy.",
	)
	st := m.Stats()
	// memcpys: 1.6,2.6,3.6 + 5.6..9.6 + 10.6 = 9; skips: 4.6 only.
	if st.Copies != 9 || st.Skips != 1 {
		t.Errorf("copies/skips = %d/%d, want 9/1", st.Copies, st.Skips)
	}
	// Unnecessary: 1.6-3.6 and candidates 5.6-8.6 -> 7 (9.6 sent, 10.6 live).
	if st.UnnecessaryCopies != 7 {
		t.Errorf("unnecessary %d, want 7", st.UnnecessaryCopies)
	}
	// T_i for the region of request 10: the four displaced candidates.
	if len(st.PerRequest) != 1 || st.PerRequest[0].UnnecessaryCopies != 4 {
		t.Errorf("per-request stats %+v", st.PerRequest)
	}
}

// TestScenarioFigure5 replays the typical buddy-help scenario of Figure 5
// (REGL, tolerance 2.5, requests at 20 and 40).
func TestScenarioFigure5(t *testing.T) {
	ring := newFigureRing()
	m := newManager(t, match.REGL, 2.5, ring)

	// Lines 1-4: exports 1.6 .. 14.6, all buffered (no request yet).
	for ts := 1.6; ts < 14.7; ts++ {
		if r := offer(t, m, ts); !r.Buffered {
			t.Fatalf("pre-request export %g skipped", ts)
		}
	}
	// Lines 5-7: request D@20 -> PENDING, remove D@1.6..D@14.6 (all below
	// the region [17.5, 20]).
	res := sendRequest(t, m, 20)
	if res.Decision.Result != match.Pending || res.Decision.Latest != 14.6 {
		t.Fatalf("reply %v", res.Decision)
	}
	if m.NumBuffered() != 0 {
		t.Fatalf("%d buffered after request", m.NumBuffered())
	}
	// Line 8: buddy-help {D@20, MATCH, D@19.6}.
	if _, err := m.OnFinal(res.ReqIndex, match.Match, 19.6); err != nil {
		t.Fatal(err)
	}
	// Lines 10-13: 15.6..18.6 skip memcpy.
	for _, ts := range []float64{15.6, 16.6, 17.6, 18.6} {
		if r := offer(t, m, ts); r.Buffered {
			t.Errorf("export %g buffered, want skip", ts)
		}
	}
	// Lines 14-16: the match 19.6: memcpy + send.
	r := offer(t, m, 19.6)
	if !r.Buffered || len(r.Sends) != 1 || r.Sends[0].MatchTS != 19.6 {
		t.Fatalf("match export %+v", r)
	}
	// Lines 17-20: 20.6..31.6 beyond the region: memcpy.
	for ts := 20.6; ts < 31.7; ts++ {
		if r := offer(t, m, ts); !r.Buffered {
			t.Fatalf("beyond-horizon export %g skipped", ts)
		}
	}
	// Lines 21-23: request D@40 -> PENDING; remove D@19.6..D@31.6.
	res2 := sendRequest(t, m, 40)
	if res2.Decision.Result != match.Pending || res2.Decision.Latest != 31.6 {
		t.Fatalf("second reply %v", res2.Decision)
	}
	if m.NumBuffered() != 0 {
		t.Fatalf("%d buffered after second request", m.NumBuffered())
	}
	// Line 24: buddy-help {D@40, MATCH, D@39.6}.
	if _, err := m.OnFinal(res2.ReqIndex, match.Match, 39.6); err != nil {
		t.Fatal(err)
	}
	// Lines 26-29: 32.6..38.6 skip (7 skipped memcpys, more than the 4 of
	// the first round: T_i is non-increasing once buddy-help engages).
	skips := 0
	for ts := 32.6; ts < 38.7; ts++ {
		if r := offer(t, m, ts); !r.Buffered {
			skips++
		}
	}
	if skips != 7 {
		t.Errorf("second-round skips = %d, want 7", skips)
	}
	// Lines 30-32: match 39.6 memcpy + send.
	r = offer(t, m, 39.6)
	if !r.Buffered || len(r.Sends) != 1 || r.Sends[0].MatchTS != 39.6 {
		t.Fatalf("second match export %+v", r)
	}
	st := m.Stats()
	if st.Sends != 2 {
		t.Errorf("sends %d, want 2", st.Sends)
	}
	if len(st.PerRequest) != 2 || !st.PerRequest[0].ViaBuddyHelp || !st.PerRequest[1].ViaBuddyHelp {
		t.Errorf("per-request %+v", st.PerRequest)
	}
}

// TestBuddyHelpNoMatch: a buddy-delivered NO MATCH decision frees nothing
// wrongly and later local exports confirm it.
func TestBuddyHelpNoMatch(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	offer(t, m, 1)
	res := sendRequest(t, m, 10) // region [9, 10]
	if res.Decision.Result != match.Pending {
		t.Fatal(res.Decision)
	}
	if _, err := m.OnFinal(res.ReqIndex, match.NoMatch, 0); err != nil {
		t.Fatal(err)
	}
	// Local exports later skip the region entirely, confirming NO MATCH.
	offer(t, m, 8.5)
	r := offer(t, m, 10.5)
	if len(r.Resolutions) != 0 {
		t.Errorf("already-decided request re-resolved: %v", r.Resolutions)
	}
	st := m.Stats()
	if st.PerRequest[0].Result != match.NoMatch {
		t.Errorf("per-request result %v", st.PerRequest[0].Result)
	}
}

// TestBuddyHelpConflictDetected: a buddy answer contradicting the local
// decision is a Property 1 violation.
func TestBuddyHelpConflictDetected(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	offer(t, m, 9.5)
	offer(t, m, 11)
	res := sendRequest(t, m, 10) // decided locally: MATCH D@9.5
	if res.Decision.Result != match.Match {
		t.Fatal(res.Decision)
	}
	if _, err := m.OnFinal(res.ReqIndex, match.Match, 9.9); err == nil {
		t.Error("conflicting buddy answer accepted")
	}
	if _, err := m.OnFinal(res.ReqIndex, match.NoMatch, 0); err == nil {
		t.Error("conflicting buddy NO MATCH accepted")
	}
	// A consistent confirmation is fine.
	if _, err := m.OnFinal(res.ReqIndex, match.Match, 9.5); err != nil {
		t.Errorf("consistent confirmation rejected: %v", err)
	}
}

// TestBuddyVerificationCatchesLies: a wrong buddy answer that cannot be
// checked immediately is caught when local exports reach the region.
func TestBuddyVerificationCatchesLies(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	res := sendRequest(t, m, 10) // region [9, 10], nothing exported yet
	if res.Decision.Result != match.Pending {
		t.Fatal(res.Decision)
	}
	if _, err := m.OnFinal(res.ReqIndex, match.Match, 9.5); err != nil {
		t.Fatal(err)
	}
	// Local exports never produce 9.5: Property-1 check must fire when the
	// region closes.
	offer(t, m, 9.7)
	if _, err := m.Offer(10.5, payload(10.5)); err == nil {
		t.Error("lying buddy answer went undetected")
	}
}

func TestOnFinalValidation(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	if _, err := m.OnFinal(0, match.Match, 1); err == nil {
		t.Error("unknown request accepted")
	}
	res := sendRequest(t, m, 10)
	if _, err := m.OnFinal(res.ReqIndex, match.Pending, 0); err == nil {
		t.Error("PENDING final accepted")
	}
}

// TestSendDataIntegrity: the sent data is the snapshot taken at export time.
func TestSendDataIntegrity(t *testing.T) {
	m := newManager(t, match.REGL, 2.5, nil)
	src := payload(9.6)
	if _, err := m.Offer(9.6, src); err != nil {
		t.Fatal(err)
	}
	src[0] = -999     // mutate the caller's buffer after the export
	offer(t, m, 10.5) // close the upcoming region [7.5, 10]
	res := sendRequest(t, m, 10)
	if len(res.Sends) != 1 {
		t.Fatal("no send")
	}
	if res.Sends[0].Data[0] != 9.6 {
		t.Errorf("send data %v, want snapshot at export time", res.Sends[0].Data)
	}
}

// TestOptimalState reproduces Figure 6: once requests and buddy-help answers
// arrive before the exports they concern, only matched objects are buffered
// and T_i is zero for every subsequent region.
func TestOptimalState(t *testing.T) {
	m := newManager(t, match.REGL, 2.5, nil)
	// Requests and buddy answers arrive ahead of the exports (fast importer
	// and a fast peer process, e.g. via buddy-help).
	for cycle := 0; cycle < 5; cycle++ {
		x := float64(20 * (cycle + 1))
		res := sendRequest(t, m, x)
		if res.Decision.Result != match.Pending {
			t.Fatalf("cycle %d: %v", cycle, res.Decision)
		}
		if _, err := m.OnFinal(res.ReqIndex, match.Match, x-0.4); err != nil {
			t.Fatal(err)
		}
		// Now the 20 exports of this cycle: only the match is copied.
		for k := 0; k < 20; k++ {
			ts := float64(20*cycle) + 0.6 + float64(k)
			r := offer(t, m, ts)
			if ts == x-0.4 {
				if !r.Buffered || len(r.Sends) != 1 {
					t.Fatalf("match %g: %+v", ts, r)
				}
			} else if r.Buffered {
				t.Fatalf("non-match %g buffered in optimal state", ts)
			}
		}
	}
	st := m.Stats()
	if st.Copies != 5 || st.Sends != 5 {
		t.Errorf("copies/sends = %d/%d, want 5/5", st.Copies, st.Sends)
	}
	if st.UnnecessaryCopies != 0 || st.UnnecessaryTime != 0 {
		t.Errorf("unnecessary %d/%v, want zero (optimal state)", st.UnnecessaryCopies, st.UnnecessaryTime)
	}
	for i, pr := range st.PerRequest {
		if pr.Unnecessary != 0 {
			t.Errorf("T_%d = %v, want 0", i, pr.Unnecessary)
		}
	}
}

// TestREGUImmediateMatch: under REGU the first in-region export decides and
// is sent immediately.
func TestREGUImmediateMatch(t *testing.T) {
	m := newManager(t, match.REGU, 3, nil)
	res := sendRequest(t, m, 10) // region [10, 13]
	if res.Decision.Result != match.Pending {
		t.Fatal(res.Decision)
	}
	if r := offer(t, m, 9.5); r.Buffered {
		t.Error("below-region export buffered")
	}
	r := offer(t, m, 11)
	if !r.Buffered || len(r.Resolutions) != 1 || len(r.Sends) != 1 || r.Sends[0].MatchTS != 11 {
		t.Fatalf("first in-region export %+v", r)
	}
	// Later in-region exports are not the match but may serve future REGU
	// requests in (10, ts]; they must be buffered.
	r = offer(t, m, 12)
	if !r.Buffered {
		t.Error("later in-region REGU export skipped; a future request could match it")
	}
}

// TestREGKeepsNonCandidates: under REG an in-region export that does not
// beat the candidate may still match a future request and must be buffered.
func TestREGKeepsNonCandidates(t *testing.T) {
	m := newManager(t, match.REG, 5, nil)
	sendRequest(t, m, 10) // region [5, 15]
	offer(t, m, 9)        // candidate, dist 1
	r := offer(t, m, 14)
	if !r.Buffered {
		t.Error("REG non-candidate in-region export skipped; future request at 14 could match it")
	}
	// And indeed a later request matches it.
	res := sendRequest(t, m, 14)
	// 14 is an exact hit: immediate match.
	if res.Decision.Result != match.Match || res.Decision.MatchTS != 14 {
		t.Fatalf("second request %v", res.Decision)
	}
	if len(res.Sends) != 1 || res.Sends[0].Data[0] != 14 {
		t.Fatalf("second request sends %v", res.Sends)
	}
}

// TestOverlappingRegionsSameMatch: two overlapping REGL regions can match
// the same timestamp; the entry must survive until both transfers happen.
func TestOverlappingRegionsSameMatch(t *testing.T) {
	m := newManager(t, match.REGL, 5, nil)
	offer(t, m, 9.6)
	offer(t, m, 10.4)
	res1 := sendRequest(t, m, 10) // region [5,10]: match 9.6
	if res1.Decision.MatchTS != 9.6 || len(res1.Sends) != 1 {
		t.Fatalf("first: %v sends %v", res1.Decision, res1.Sends)
	}
	offer(t, m, 11.5)
	res2 := sendRequest(t, m, 11) // region [6,11]: match 10.4
	if res2.Decision.MatchTS != 10.4 || len(res2.Sends) != 1 {
		t.Fatalf("second: %v sends %v", res2.Decision, res2.Sends)
	}
}

func TestFiniteBufferOverflow(t *testing.T) {
	m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5, MaxBytes: 8 * 3 * 4}) // room for 4 entries
	if err != nil {
		t.Fatal(err)
	}
	for ts := 1.0; ts <= 4; ts++ {
		if _, err := m.Offer(ts, payload(ts)); err != nil {
			t.Fatalf("Offer(%g): %v", ts, err)
		}
	}
	// Fifth export with no requests: everything is live, nothing freeable.
	_, err = m.Offer(5, payload(5))
	if !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
}

func TestFiniteBufferRecoversAfterFrees(t *testing.T) {
	m, err := NewManager(Config{Policy: match.REGL, Tol: 0.5, MaxBytes: 8 * 3 * 4})
	if err != nil {
		t.Fatal(err)
	}
	for ts := 1.0; ts <= 4; ts++ {
		if _, err := m.Offer(ts, payload(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// A request whose region [9.5, 10] is above everything buffered frees
	// the stale entries (all below the new lower bound).
	if _, err := m.OnRequest(10); err != nil {
		t.Fatal(err)
	}
	if m.NumBuffered() != 0 {
		t.Fatalf("%d entries after freeing request", m.NumBuffered())
	}
	if _, err := m.Offer(20, payload(20)); err != nil {
		t.Fatalf("post-free offer: %v", err)
	}
}

func TestBufferedBytesAccounting(t *testing.T) {
	m := newManager(t, match.REGL, 1, nil)
	offer(t, m, 1)
	offer(t, m, 2)
	if m.BufferedBytes() != 2*8*3 {
		t.Errorf("bytes %d", m.BufferedBytes())
	}
	sendRequest(t, m, 10) // frees both (below region [9,10])
	if m.BufferedBytes() != 0 {
		t.Errorf("bytes after free %d", m.BufferedBytes())
	}
	st := m.Stats()
	if st.BytesCopied != 2*8*3 {
		t.Errorf("bytes copied %d", st.BytesCopied)
	}
	if st.Removes != 2 || st.UnnecessaryCopies != 2 {
		t.Errorf("removes/unnecessary = %d/%d", st.Removes, st.UnnecessaryCopies)
	}
}

// TestPropertyNeverLoseMatch drives random interleavings of exports and
// requests (with and without buddy-help) and asserts the fundamental safety
// property: every request that resolves to MATCH produces exactly one send
// whose payload is the data exported at the matched timestamp.
func TestPropertyNeverLoseMatch(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		policy := match.Policy(r.Intn(3))
		tol := 0.5 + r.Float64()*4
		useBuddy := r.Intn(2) == 0

		m, err := NewManager(Config{Policy: policy, Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		// The "fastest process": a plain matcher fed the same exports in
		// advance, standing in for the peer whose answer buddy-help relays.
		fast, err := match.New(policy, tol)
		if err != nil {
			t.Fatal(err)
		}
		exports := make([]float64, 60)
		ts := 0.0
		for i := range exports {
			ts += 0.1 + r.Float64()
			exports[i] = ts
		}
		for _, e := range exports {
			if err := fast.AddExport(e); err != nil {
				t.Fatal(err)
			}
		}

		type reqInfo struct {
			idx     int
			x       float64
			decided bool
			result  match.Result
			matchTS float64
			sends   int
		}
		var reqs []*reqInfo
		collect := func(sends []SendItem) {
			for _, s := range sends {
				ri := reqs[s.ReqIndex]
				ri.sends++
				if s.MatchTS != s.Data[0] {
					t.Fatalf("seed %d: send data[0]=%v for match %v", seed, s.Data[0], s.MatchTS)
				}
			}
		}
		record := func(idx int, d match.Decision) {
			ri := reqs[idx]
			ri.decided = true
			ri.result = d.Result
			ri.matchTS = d.MatchTS
		}

		nextExport := 0
		x := 0.0
		for nextExport < len(exports) {
			if r.Intn(3) == 0 && len(reqs) < 10 {
				// Issue a request somewhere ahead of the current position.
				x += 0.2 + r.Float64()*6
				res, err := m.OnRequest(x)
				if err != nil {
					t.Fatalf("seed %d OnRequest: %v", seed, err)
				}
				reqs = append(reqs, &reqInfo{idx: res.ReqIndex, x: x})
				if res.Decision.Result != match.Pending {
					record(res.ReqIndex, res.Decision)
				}
				collect(res.Sends)
				// Maybe deliver buddy-help using the fast process's answer.
				if useBuddy && res.Decision.Result == match.Pending {
					fd := fast.Evaluate(x)
					if fd.Result != match.Pending {
						sends, err := m.OnFinal(res.ReqIndex, fd.Result, fd.MatchTS)
						if err != nil {
							t.Fatalf("seed %d OnFinal: %v", seed, err)
						}
						record(res.ReqIndex, fd)
						collect(sends)
					}
				}
				continue
			}
			e := exports[nextExport]
			nextExport++
			// Requests must keep increasing; ensure future request base
			// stays ahead of issued ones.
			if e > x {
				x = e
			}
			res, err := m.Offer(e, payload(e))
			if err != nil {
				t.Fatalf("seed %d Offer(%g): %v", seed, e, err)
			}
			for _, rs := range res.Resolutions {
				record(rs.ReqIndex, rs.Decision)
			}
			collect(res.Sends)
		}

		// Every request decidable from the full export set must agree with
		// the oracle, and matched ones must have sent exactly once.
		for _, ri := range reqs {
			oracle := match.Evaluate(policy, tol, ri.x, exports)
			if oracle.Result == match.Pending {
				continue
			}
			if !ri.decided {
				continue // decision may legitimately still be pending if exports ended early
			}
			if ri.result != oracle.Result || (oracle.Result == match.Match && ri.matchTS != oracle.MatchTS) {
				t.Fatalf("seed %d: request %g decided %v/%g, oracle %v", seed, ri.x, ri.result, ri.matchTS, oracle)
			}
			if ri.result == match.Match && ri.sends != 1 {
				t.Fatalf("seed %d: request %g matched but sent %d times", seed, ri.x, ri.sends)
			}
		}
	}
}

// TestPropertyBuddyHelpOnlyReducesCopies: for identical export/request
// streams, enabling buddy-help never increases the number of memcpys and
// never changes which timestamps get transferred.
func TestPropertyBuddyHelpOnlyReducesCopies(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		tol := 1 + r.Float64()*4
		period := 2 + r.Intn(6)

		run := func(buddy bool) (Stats, []float64) {
			m, err := NewManager(Config{Policy: match.REGL, Tol: tol})
			if err != nil {
				t.Fatal(err)
			}
			// The fast peer process: it exports the same timestamp sequence
			// but runs far ahead, so its matcher can already decide any
			// request the slow process sees.
			fast, _ := match.New(match.REGL, tol)
			for k := 1; k <= 200; k++ {
				if err := fast.AddExport(float64(k)); err != nil {
					t.Fatal(err)
				}
			}
			var sent []float64
			ts := 0.0
			for i := 0; i < 80; i++ {
				ts++ // the slow process's export grid: 1, 2, 3, ...
				if i%period == 0 {
					x := ts + tol/2 + 1
					res, err := m.OnRequest(x)
					if err != nil {
						t.Fatalf("seed %d request: %v", seed, err)
					}
					for _, s := range res.Sends {
						sent = append(sent, s.MatchTS)
					}
					if buddy && res.Decision.Result == match.Pending {
						fd := fast.Evaluate(x)
						if fd.Result != match.Pending {
							sends, err := m.OnFinal(res.ReqIndex, fd.Result, fd.MatchTS)
							if err != nil {
								t.Fatalf("seed %d buddy: %v", seed, err)
							}
							for _, s := range sends {
								sent = append(sent, s.MatchTS)
							}
						}
					}
				}
				res, err := m.Offer(ts, payload(ts))
				if err != nil {
					t.Fatalf("seed %d offer: %v", seed, err)
				}
				for _, s := range res.Sends {
					sent = append(sent, s.MatchTS)
				}
			}
			// Drain: keep exporting past every region so all requests
			// resolve in both runs (no end-of-run truncation).
			for ts < 100 {
				ts++
				res, err := m.Offer(ts, payload(ts))
				if err != nil {
					t.Fatalf("seed %d drain: %v", seed, err)
				}
				for _, s := range res.Sends {
					sent = append(sent, s.MatchTS)
				}
			}
			return m.Stats(), sent
		}

		without, sentWithout := run(false)
		with, sentWith := run(true)
		if with.Copies > without.Copies {
			t.Fatalf("seed %d: buddy-help increased copies %d -> %d", seed, without.Copies, with.Copies)
		}
		if fmt.Sprint(sentWith) != fmt.Sprint(sentWithout) {
			t.Fatalf("seed %d: transfers differ with buddy-help: %v vs %v", seed, sentWith, sentWithout)
		}
	}
}

func TestAccessors(t *testing.T) {
	m := newManager(t, match.REG, 1.5, nil)
	if m.Policy() != match.REG || m.Tolerance() != 1.5 {
		t.Error("accessors wrong")
	}
	if m.Latest() != match.NoExports {
		t.Error("Latest before exports")
	}
	offer(t, m, 3)
	if m.Latest() != 3 {
		t.Error("Latest after export")
	}
	if !m.Buffered(3) || m.Buffered(4) {
		t.Error("Buffered lookup wrong")
	}
	if math.IsNaN(m.BufferedBytesFraction()) {
		t.Error("fraction NaN")
	}
}
