package buffer

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/match"
)

func driveManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	data := func(v float64) []float64 { return []float64{v, v + 1, v + 2} }
	for ts := 1.0; ts <= 5; ts++ {
		if _, err := m.Offer(ts, data(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Request at 4.6: REGL region (2.1, 4.6]; export 6 closes it -> match 4.
	if _, err := m.OnRequest(4.6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Offer(6, data(6)); err != nil {
		t.Fatal(err)
	}
	// A second, still pending request.
	if _, err := m.OnRequest(8.6); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStateRoundTrip snapshots a mid-run manager, restores it into a fresh
// one, and checks the restored manager carries on identically.
func TestStateRoundTrip(t *testing.T) {
	m := driveManager(t)
	st := m.State()

	if len(st.Requests) != 2 || !st.Requests[0].Decided || st.Requests[0].MatchTS != 4 {
		t.Fatalf("unexpected snapshot requests: %+v", st.Requests)
	}

	r, err := NewManager(Config{Policy: match.REGL, Tol: 2.5, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Latest(), m.Latest(); got != want {
		t.Fatalf("restored Latest = %g, want %g", got, want)
	}
	if got, want := r.NumRequests(), 2; got != want {
		t.Fatalf("restored NumRequests = %d, want %d", got, want)
	}
	if !r.Buffered(4) {
		t.Fatal("restored manager lost the matched version D@4")
	}
	// Snapshot of the restored manager must equal the original snapshot.
	st2 := r.State()
	if !statesEqual(st, st2) {
		t.Fatalf("restored state diverges:\n  orig %+v\n  rest %+v", st, st2)
	}

	// The restored manager continues: export 11 closes request 8.6 -> match 8?
	// No export at 8 happened; candidates in (6.1, 8.6] are none, latest=6.
	// Offer 7, then 9: 7 is in-region candidate, 9 closes region -> match 7.
	if _, err := r.Offer(7, []float64{7}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Offer(9, []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Resolutions) != 1 || res.Resolutions[0].Decision.Result != match.Match ||
		res.Resolutions[0].Decision.MatchTS != 7 {
		t.Fatalf("restored manager resolution = %+v, want match D@7", res.Resolutions)
	}
}

// TestOnRequestAtReplay exercises the idempotent re-request path a restarted
// importer triggers.
func TestOnRequestAtReplay(t *testing.T) {
	m := driveManager(t)

	// Replaying request 0 (decided, matched D@4, retained) re-answers and
	// re-sends the data.
	res, fresh, err := m.OnRequestAt(0, 4.6)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("replayed request reported fresh")
	}
	if res.Decision.Result != match.Match || res.Decision.MatchTS != 4 {
		t.Fatalf("replayed decision = %+v, want match D@4", res.Decision)
	}
	if len(res.Sends) != 1 || res.Sends[0].MatchTS != 4 {
		t.Fatalf("replayed sends = %+v, want one resend of D@4", res.Sends)
	}
	m.TransferDone(4)

	// Replaying with a mismatched timestamp is a protocol violation.
	if _, _, err := m.OnRequestAt(0, 4.7); err == nil {
		t.Fatal("mismatched replay timestamp not rejected")
	}
	// Replaying the pending request re-reports PENDING without duplicating it.
	res, fresh, err = m.OnRequestAt(1, 8.6)
	if err != nil || fresh {
		t.Fatalf("pending replay: fresh=%v err=%v", fresh, err)
	}
	if res.Decision.Result != match.Pending {
		t.Fatalf("pending replay decision = %v", res.Decision.Result)
	}
	if m.NumRequests() != 2 {
		t.Fatalf("replay duplicated requests: %d", m.NumRequests())
	}
	// A genuinely new request still appends.
	if _, fresh, err = m.OnRequestAt(2, 12.6); err != nil || !fresh {
		t.Fatalf("new request via OnRequestAt: fresh=%v err=%v", fresh, err)
	}
}

// TestRetainUntilRelease checks the recovery retention rule: a matched, sent
// version survives until ReleaseThrough, then is freed.
func TestRetainUntilRelease(t *testing.T) {
	m := driveManager(t)
	m.TransferDone(4) // drain the transfer handed out at decide time
	// D@4 is matched+sent; without Retain the next sweep would free it. It
	// must still be buffered (driveManager set Retain).
	if !m.Buffered(4) {
		t.Fatal("retained version freed before release")
	}
	m.ReleaseThrough(1)
	if m.Buffered(4) {
		t.Fatal("released version still buffered")
	}
	// Releasing again (or past the end) is harmless.
	m.ReleaseThrough(5)
}

func statesEqual(a, b ManagerState) bool {
	// NaN candidates make reflect.DeepEqual useless on Requests; compare
	// field-wise with NaN-aware float comparison.
	if !reflect.DeepEqual(a.Exports, b.Exports) || a.Finished != b.Finished ||
		!reflect.DeepEqual(a.Entries, b.Entries) || len(a.Requests) != len(b.Requests) {
		return false
	}
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.X != y.X || x.Decided != y.Decided || x.Result != y.Result ||
			!feq(x.MatchTS, y.MatchTS) || x.ViaBuddy != y.ViaBuddy ||
			x.Verified != y.Verified || x.DataSent != y.DataSent ||
			x.Released != y.Released || !feq(x.CandTS, y.CandTS) {
			return false
		}
	}
	return true
}

// TestRestoreRejectsMalformedState: a checkpoint read from disk is outside
// input. Two entries with one timestamp would leave one live entry while
// BufferedBytes counts both (and leak the first pool buffer); a NaN
// timestamp is a map key no lookup finds; a result the matcher never
// produces has no meaning. Restore refuses each before touching the
// manager.
func TestRestoreRejectsMalformedState(t *testing.T) {
	good := driveManager(t).State()
	entry := EntryState{TS: 3, Data: []float64{1, 2, 3, 4}}
	cases := map[string]func(st *ManagerState){
		"duplicate entry": func(st *ManagerState) { st.Entries = []EntryState{entry, entry} },
		"decreasing entries": func(st *ManagerState) {
			st.Entries = []EntryState{entry, {TS: 2, Data: entry.Data}}
		},
		"NaN entry":        func(st *ManagerState) { st.Entries = []EntryState{{TS: math.NaN()}} },
		"result 99":        func(st *ManagerState) { st.Requests[1].Result = 99 },
		"repeated request": func(st *ManagerState) { st.Requests[1].X = st.Requests[0].X },
		"NaN request":      func(st *ManagerState) { st.Requests[0].X = math.NaN() },
	}
	for name, corrupt := range cases {
		st := good
		st.Entries = append([]EntryState(nil), good.Entries...)
		st.Requests = append([]RequestState(nil), good.Requests...)
		corrupt(&st)
		m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5, Retain: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(st); err == nil {
			t.Errorf("%s: accepted (%d entries, %d bytes buffered)", name, len(m.entries), m.BufferedBytes())
		}
		if len(m.entries) != 0 || m.BufferedBytes() != 0 || m.NumRequests() != 0 {
			t.Errorf("%s: rejected state left %d entries, %d bytes, %d requests behind",
				name, len(m.entries), m.BufferedBytes(), m.NumRequests())
		}
	}
}
