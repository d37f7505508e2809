package buffer

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/match"
)

// ManagerState is a serializable snapshot of one Manager: the matcher's
// export history, every live buffered version, and every request's lifecycle
// state. It is what the recovery layer writes into a checkpoint at a
// collective cut and feeds back through Restore after a crash.
//
// Statistics are deliberately not part of the state: counters (and the
// TransferDones == Sends drain invariant) are per-incarnation.
type ManagerState struct {
	Exports  []float64
	Finished bool
	Entries  []EntryState
	Requests []RequestState
}

// EntryState is one buffered data object version inside a ManagerState.
type EntryState struct {
	TS   float64
	Data []float64
	Sent bool
}

// RequestState is one import request's lifecycle inside a ManagerState.
type RequestState struct {
	X        float64
	Decided  bool
	Result   match.Result
	MatchTS  float64
	ViaBuddy bool
	Verified bool
	DataSent bool
	Released bool
	CandTS   float64 // NaN when no candidate
}

// State snapshots the manager. Entry data is copied, so the snapshot stays
// valid while the manager keeps running (and while the data plane reads the
// live buffers concurrently — callers serialize with the manager's owner
// lock, not with the sender goroutines, which only ever read entry data).
func (m *Manager) State() ManagerState {
	st := ManagerState{Exports: m.matcher.Exports(), Finished: m.finished}
	tss := make([]float64, 0, len(m.entries))
	for ts := range m.entries {
		tss = append(tss, ts)
	}
	sort.Float64s(tss)
	st.Entries = make([]EntryState, 0, len(tss))
	for _, ts := range tss {
		e := m.entries[ts]
		st.Entries = append(st.Entries, EntryState{
			TS:   ts,
			Data: append([]float64(nil), e.Data...),
			Sent: e.Sent,
		})
	}
	st.Requests = make([]RequestState, 0, len(m.requests))
	for _, r := range m.requests {
		st.Requests = append(st.Requests, RequestState{
			X:        r.x,
			Decided:  r.decided,
			Result:   r.result,
			MatchTS:  r.matchTS,
			ViaBuddy: r.viaBuddy,
			Verified: r.verified,
			DataSent: r.dataSent,
			Released: r.released,
			CandTS:   r.candTS,
		})
	}
	return st
}

// Restore rebuilds a freshly constructed manager from a checkpointed state.
// Buffered versions go through the Config.Snapshot hook when one is set, so
// fanned-out regions re-share physical copies exactly as they did before the
// crash (and Release stays correctly paired). The state may come from disk,
// so it is checked first: entry and request timestamps strictly increase (as
// State writes them) and every result is one the matcher can produce.
func (m *Manager) Restore(st ManagerState) error {
	if len(m.requests) != 0 || len(m.entries) != 0 || m.matcher.NumExports() != 0 {
		return errors.New("buffer: Restore on a manager that is not fresh")
	}
	for i, es := range st.Entries {
		if math.IsNaN(es.TS) || (i > 0 && es.TS <= st.Entries[i-1].TS) {
			return fmt.Errorf("buffer: restore: entry timestamp %g not greater than the previous entry's", es.TS)
		}
	}
	for i, rs := range st.Requests {
		if math.IsNaN(rs.X) || (i > 0 && rs.X <= st.Requests[i-1].X) {
			return fmt.Errorf("buffer: restore: request timestamp %g not greater than the previous request's", rs.X)
		}
		if rs.Result != match.Pending && rs.Result != match.Match && rs.Result != match.NoMatch {
			return fmt.Errorf("buffer: restore: request %d has result %d", i, rs.Result)
		}
	}
	if err := m.matcher.Restore(st.Exports); err != nil {
		return err
	}
	m.finished = st.Finished
	for _, es := range st.Entries {
		var buf []float64
		if m.cfg.Snapshot != nil {
			buf = m.cfg.Snapshot(es.TS, es.Data)
		} else {
			buf = m.pool.Get(len(es.Data))
			copy(buf, es.Data)
		}
		e := m.newEntry()
		e.TS, e.Data, e.CopyTime, e.Sent, e.pendingTransfers = es.TS, buf, 0, es.Sent, 0
		m.entries[es.TS] = e
		m.bytes += int64(8 * len(es.Data))
	}
	for i, rs := range st.Requests {
		r := &request{
			index:    i,
			x:        rs.X,
			region:   m.cfg.Policy.Region(rs.X, m.cfg.Tol),
			decided:  rs.Decided,
			result:   rs.Result,
			matchTS:  rs.MatchTS,
			viaBuddy: rs.ViaBuddy,
			verified: rs.Verified,
			dataSent: rs.DataSent,
			released: rs.Released,
			candTS:   rs.CandTS,
		}
		m.requests = append(m.requests, r)
		m.newestLo, m.newestHi, m.newestX = r.region.Lo, r.region.Hi, r.x
	}
	return nil
}

// NumRequests returns how many import requests the manager has seen (after a
// Restore, how many the checkpoint carried). The rejoin handshake reports it
// so the importer knows where replay must start.
func (m *Manager) NumRequests() int { return len(m.requests) }

// ReleaseThrough marks every request with index < n released: its matched
// version no longer needs to be retained for post-crash resync, because the
// importer has checkpointed past consuming it. Freed entries are swept
// immediately. It is a no-op unless Config.Retain is set.
func (m *Manager) ReleaseThrough(n int) {
	if n > len(m.requests) {
		n = len(m.requests)
	}
	changed := false
	for _, r := range m.requests[:n] {
		if !r.released {
			r.released = true
			changed = true
		}
	}
	if changed {
		m.sweep()
	}
}

// ResendData re-hands out the matched object of an already decided request
// (a crashed importer asked for it again). It returns ok=false when the
// request is undecided, unmatched, or its version is no longer buffered —
// the latter only happens when the importer released it, in which case the
// importer will never ask again.
func (m *Manager) ResendData(reqIndex int) (SendItem, bool, error) {
	if reqIndex < 0 || reqIndex >= len(m.requests) {
		return SendItem{}, false, fmt.Errorf("buffer: ResendData for unknown request %d", reqIndex)
	}
	r := m.requests[reqIndex]
	if !r.decided || r.result != match.Match {
		return SendItem{}, false, nil
	}
	e, ok := m.entries[r.matchTS]
	if !ok {
		return SendItem{}, false, nil
	}
	r.dataSent = true
	e.Sent = true
	e.pendingTransfers++
	m.stats.Sends++
	return SendItem{ReqIndex: r.index, ReqTS: r.x, MatchTS: e.TS, Data: e.Data, CopyTime: e.CopyTime}, true, nil
}

// OnRequestAt is the replay-tolerant form of OnRequest used under recovery:
// the rep names the request index explicitly, and an index the manager has
// already seen is re-answered idempotently (re-sending matched data when the
// version is still buffered) instead of failing the increasing-timestamps
// check. fresh reports whether the request was new to this manager.
func (m *Manager) OnRequestAt(reqID int, x float64) (res RequestResult, fresh bool, err error) {
	if reqID == len(m.requests) {
		rr, err := m.OnRequest(x)
		return rr, true, err
	}
	if reqID < 0 || reqID > len(m.requests) {
		return RequestResult{}, false, fmt.Errorf(
			"buffer: request id %d out of step with local request count %d", reqID, len(m.requests))
	}
	r := m.requests[reqID]
	if r.x != x {
		return RequestResult{}, false, fmt.Errorf(
			"buffer: replayed request %d timestamp %g != recorded %g", reqID, x, r.x)
	}
	res = RequestResult{ReqIndex: reqID}
	if r.decided {
		res.Decision = match.Decision{
			Latest: m.matcher.Latest(), Region: r.region,
			Result: r.result, MatchTS: r.matchTS,
		}
		if r.result == match.Match {
			item, ok, err := m.ResendData(reqID)
			if err != nil {
				return res, false, err
			}
			if ok {
				res.Sends = []SendItem{item}
			}
		}
		return res, false, nil
	}
	// Still undecided locally: report the current evaluation (normally
	// PENDING again; the decision flows through the usual resolution paths).
	d := m.matcher.Evaluate(x)
	if d.Result == match.Pending && m.finished {
		d = m.closedDecision(r)
	}
	if d.Result != match.Pending {
		res.Sends = m.decide(r, d.Result, d.MatchTS, false)
		m.sweep()
	}
	res.Decision = d
	if math.IsNaN(r.candTS) {
		r.candTS = m.currentCandidate(r)
	}
	return res, false, nil
}
