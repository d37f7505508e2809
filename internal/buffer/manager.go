// Package buffer implements the exporter-side version buffer of the coupling
// framework: the per-process, per-connection state machine that decides, for
// every export call, whether the framework must copy ("memcpy") the data
// object into its buffer or may skip the copy because the object can never be
// a match — the decision the paper's buddy-help optimization improves.
//
// The Manager reproduces the buffering rules of the paper's Figures 5, 7 and
// 8 exactly:
//
//   - An export beyond every known acceptable region is buffered (a future
//     request might want it — Figure 3(a)).
//   - An export inside an undecided acceptable region becomes the current
//     best candidate and is buffered; the candidate it replaces is freed
//     (Figure 8, lines 9-18).
//   - An export that cannot be the match of any current or future request is
//     skipped. This includes everything below the newest region's lower
//     bound, and — once the match for a region is known, locally or via a
//     buddy-help message — every non-match timestamp dominated by that known
//     match (Figure 5 lines 10-13, Figure 7 lines 8-11).
//   - The matched object is buffered and handed out for sending; freed
//     buffered objects that were never sent accumulate the paper's
//     unnecessary-buffering time T_i / T_ub (Equations (1)-(2)).
//
// A Manager handles one connection of one exporter process and is not safe
// for concurrent use; the framework layer serializes access.
package buffer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/match"
	"repro/internal/obsv"
	"repro/internal/vclock"
)

// ErrBufferFull is returned by Offer when a finite-capacity buffer cannot
// hold a data object that the correctness rules require it to keep.
var ErrBufferFull = errors.New("buffer: capacity exhausted by live data objects")

// Entry is one buffered data object version.
type Entry struct {
	TS       float64
	Data     []float64
	CopyTime time.Duration
	Sent     bool
	// pendingTransfers counts SendItems handed out whose consumers have not
	// yet called TransferDone: while nonzero, Data is aliased outside the
	// manager and must not be recycled into the pool when the entry is freed.
	pendingTransfers int
}

// request tracks one import request's lifecycle inside the manager.
type request struct {
	index   int
	x       float64
	region  match.Interval
	decided bool
	result  match.Result
	matchTS float64
	// viaBuddy records that the decision arrived as a buddy-help message
	// before this process could decide locally.
	viaBuddy bool
	// verified records that a buddy-delivered decision was later confirmed
	// by this process's own exports (Property-1 self check).
	verified bool
	// dataSent records that the matched object was handed out for transfer.
	dataSent bool
	// released records that the importer has checkpointed past this request,
	// so its matched version no longer needs retention for crash resync
	// (meaningful only under Config.Retain).
	released bool
	// candTS is the current best in-region candidate while undecided
	// (NaN when none).
	candTS float64
	// unnecessary accumulates T_i: copy time of objects buffered for this
	// region and freed without being sent.
	unnecessary       time.Duration
	unnecessaryCopies int
}

// Config configures a Manager.
type Config struct {
	// Policy and Tol define the connection's acceptable regions.
	Policy match.Policy
	Tol    float64
	// Ring, when non-nil, receives the paper-figure events as "fig.*"
	// instant spans (see FigureLines).
	Ring *obsv.Ring
	// MaxBytes bounds the buffer size (0 = unbounded). This implements the
	// paper's future-work item on finite buffer space: Offer fails with
	// ErrBufferFull when live objects exceed the bound.
	MaxBytes int64
	// Snapshot, when non-nil, supplies the buffered copy of an offered
	// object instead of the manager copying it. The framework uses it to
	// share one physical copy among the managers of a fanned-out export
	// region (one memcpy however many importers are wired). The manager
	// still times the call — the first manager to buffer a version pays the
	// copy, the others get it for free.
	Snapshot func(ts float64, data []float64) []float64
	// Release is called whenever the manager frees an entry obtained from
	// Snapshot (the refcounting hook paired with it).
	Release func(ts float64)
	// Pool, when non-nil, supplies the buffer recycling pool. The framework
	// passes one pool per process so every connection's manager shares the
	// same free buffers; nil gives the manager a private pool.
	Pool *Pool
	// Retain keeps matched-and-sent versions buffered until ReleaseThrough
	// says the importer checkpointed past them, so a restarted importer can
	// have them resent. Without it (the default) a sent version is freed as
	// soon as the normal retention rules allow.
	Retain bool
	// Now overrides the clock; nil means the wall clock. The framework wires
	// in its injected clock (core.Options.Clock) here.
	Now func() time.Time
}

// Manager is the export pipeline state machine for one connection.
type Manager struct {
	cfg     Config
	matcher *match.Matcher

	entries map[float64]*Entry
	bytes   int64
	// pool recycles released data slices in power-of-two size classes,
	// keeping steady-state buffering free of allocation and GC churn — the
	// memcpy alone is what Figure 4 measures. (It replaces an ad-hoc
	// freelist that dropped every popped candidate whose length mismatched,
	// so reuse stopped after any region-size change.)
	pool *Pool
	// entryFree recycles Entry structs so the buffered-export hot path does
	// zero heap allocation at steady state.
	entryFree []*Entry
	// sweepScratch is reused by sweep for the removed-timestamp list.
	sweepScratch []float64

	requests []*request
	// newestLo/newestHi cache the newest request's acceptable region; the
	// model requires request timestamps to be increasing, so future regions
	// lie strictly above newestLo.
	newestLo, newestHi, newestX float64

	// finished records that no further exports will occur (Finish), which
	// lets every pending and future request decide immediately.
	finished bool

	stats Stats
}

// Stats aggregates the manager's buffering behaviour; its fields map onto
// the quantities the paper's evaluation reports.
type Stats struct {
	// Exports counts Offer calls; Copies/Skips split them by outcome.
	Exports, Copies, Skips int
	// Sends counts matched objects handed out for transfer; Removes counts
	// freed buffer entries.
	Sends, Removes int
	// TransferDones counts TransferDone calls. The pipeline contract is one
	// call per SendItem, so after a drain barrier TransferDones == Sends —
	// the invariant the chaos harness asserts.
	TransferDones int
	// UnnecessaryCopies counts buffered objects freed without being sent.
	UnnecessaryCopies int
	// BytesCopied totals the bytes memcpy'd into the buffer.
	BytesCopied int64
	// CopyTime totals time spent copying; UnnecessaryTime is the subset
	// spent on objects later freed unsent (the paper's T_ub).
	CopyTime, UnnecessaryTime time.Duration
	// Pool snapshots the buffer pool's hit/miss counters. When the
	// framework shares one pool among a process's managers, every manager
	// reports the same (process-wide) pool counters.
	Pool PoolStats
	// PerRequest holds one record per import request, in arrival order.
	PerRequest []RequestStats
}

// RequestStats is the per-acceptable-region slice of Stats (T_i in the
// paper's Equation (1)).
type RequestStats struct {
	ReqTS             float64
	Result            match.Result
	MatchTS           float64
	ViaBuddyHelp      bool
	Unnecessary       time.Duration
	UnnecessaryCopies int
}

// SendItem is a matched data object ready for transfer to the importer.
// Data aliases the buffered copy; the caller must treat it as read-only.
type SendItem struct {
	ReqIndex int
	ReqTS    float64
	MatchTS  float64
	Data     []float64
	CopyTime time.Duration
}

// Resolution reports that a previously PENDING request became locally
// decidable (the caller forwards it to the rep as an updated response).
type Resolution struct {
	ReqIndex int
	ReqTS    float64
	Decision match.Decision
}

// OfferResult reports everything one export call caused.
type OfferResult struct {
	// Buffered is true when the framework copied the object ("call memcpy").
	Buffered bool
	// CopyTime is the wall time of that copy (zero when skipped).
	CopyTime time.Duration
	// Resolutions lists requests this export made locally decidable.
	Resolutions []Resolution
	// Sends lists matched objects now ready for transfer (including, when
	// this export *is* a known match, the object just buffered).
	Sends []SendItem
}

// RequestResult reports the immediate outcome of a new import request.
type RequestResult struct {
	ReqIndex int
	Decision match.Decision
	Sends    []SendItem
}

// NewManager returns a manager for one connection.
func NewManager(cfg Config) (*Manager, error) {
	matcher, err := match.New(cfg.Policy, cfg.Tol)
	if err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = vclock.Wall.Now
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(0)
	}
	return &Manager{
		cfg:      cfg,
		matcher:  matcher,
		pool:     pool,
		entries:  make(map[float64]*Entry),
		newestLo: math.Inf(-1),
		newestHi: math.Inf(-1),
		newestX:  math.Inf(-1),
	}, nil
}

// Pool returns the manager's buffer pool (shared across a process's
// managers when Config.Pool was set).
func (m *Manager) Pool() *Pool { return m.pool }

// Policy returns the connection's match policy.
func (m *Manager) Policy() match.Policy { return m.cfg.Policy }

// Tolerance returns the connection's tolerance.
func (m *Manager) Tolerance() float64 { return m.cfg.Tol }

// NumBuffered returns the number of live buffered objects.
func (m *Manager) NumBuffered() int { return len(m.entries) }

// BufferedBytes returns the bytes held by live buffered objects.
func (m *Manager) BufferedBytes() int64 { return m.bytes }

// BufferedBytesFraction returns the fraction of a finite buffer in use
// (0 when the buffer is unbounded).
func (m *Manager) BufferedBytesFraction() float64 {
	if m.cfg.MaxBytes <= 0 {
		return 0
	}
	return float64(m.bytes) / float64(m.cfg.MaxBytes)
}

// Buffered reports whether a version with timestamp ts is held.
func (m *Manager) Buffered(ts float64) bool {
	_, ok := m.entries[ts]
	return ok
}

// Stats returns a snapshot of the accumulated statistics.
func (m *Manager) Stats() Stats {
	out := m.stats
	out.Pool = m.pool.Stats()
	out.PerRequest = make([]RequestStats, len(m.requests))
	for i, r := range m.requests {
		out.PerRequest[i] = RequestStats{
			ReqTS:             r.x,
			Result:            r.result,
			MatchTS:           r.matchTS,
			ViaBuddyHelp:      r.viaBuddy,
			Unnecessary:       r.unnecessary,
			UnnecessaryCopies: r.unnecessaryCopies,
		}
	}
	return out
}

// Latest returns the latest exported timestamp (match.NoExports if none).
func (m *Manager) Latest() float64 { return m.matcher.Latest() }

// Finish declares that this process will export no further versions of the
// region. Every pending request decides immediately — MATCH on its current
// best candidate if one exists, NO MATCH otherwise — and future requests
// resolve against the buffered versions alone. Finish is collective, like
// Export: either every process of the program calls it or none does.
// Resolutions for previously pending requests are returned so the caller can
// report them; Sends carry any matches that can now be transferred.
func (m *Manager) Finish() ([]Resolution, []SendItem, error) {
	if m.finished {
		return nil, nil, errors.New("buffer: Finish called twice")
	}
	// A buddy-delivered match this process never exported means its peers
	// exported timestamps it did not — finishing now violates Property 1.
	for _, r := range m.requests {
		if r.decided && r.result == match.Match && !r.dataSent {
			return nil, nil, fmt.Errorf(
				"buffer: Property 1 violation: Finish before exporting the matched D@%g of request D@%g",
				r.matchTS, r.x)
		}
	}
	m.finished = true
	var resolutions []Resolution
	var sends []SendItem
	for _, r := range m.requests {
		if r.decided {
			continue
		}
		d := m.closedDecision(r)
		resolutions = append(resolutions, Resolution{ReqIndex: r.index, ReqTS: r.x, Decision: d})
		m.fig(replyEvent(r.x, d))
		sends = append(sends, m.decide(r, d.Result, d.MatchTS, false)...)
	}
	m.sweep()
	return resolutions, sends, nil
}

// Finished reports whether Finish has been called.
func (m *Manager) Finished() bool { return m.finished }

// Evict frees every buffered entry regardless of the retention rules and
// returns how many were dropped. It is the framework's response to a dead
// importer: no buffered version of this connection can ever be sent, so
// holding them would grow the buffer without bound while the exporter keeps
// running. Entries freed unsent still count toward the unnecessary-buffering
// statistics — they were real copies the coupling never used.
func (m *Manager) Evict() int {
	n := 0
	for _, e := range m.entries {
		m.free(e)
		n++
	}
	return n
}

// TransferDone tells the manager that one SendItem for the version at ts
// has been fully consumed (its data copied to the wire), releasing that
// alias of the buffered slice. Once every hand-out of an entry is done, the
// buffer re-enters the pool when the entry is freed, which keeps the
// steady-state export path allocation-free even when every version is
// matched and transferred. Callers must invoke it exactly once per
// SendItem; a ts whose entry is already gone is ignored (the entry was
// evicted mid-transfer and its buffer left to the garbage collector).
func (m *Manager) TransferDone(ts float64) {
	m.stats.TransferDones++
	if e, ok := m.entries[ts]; ok && e.pendingTransfers > 0 {
		e.pendingTransfers--
	}
}

// closedDecision resolves a request knowing no further exports will come:
// the match is the best buffered in-region version, if any. (Any in-region
// export that was skipped or freed is provably dominated by a buffered one —
// see the retention rules — so the buffered set suffices.)
func (m *Manager) closedDecision(r *request) match.Decision {
	d := match.Decision{Latest: m.matcher.Latest(), Region: r.region}
	best := m.currentCandidate(r)
	if math.IsNaN(best) {
		d.Result = match.NoMatch
		return d
	}
	d.Result = match.Match
	d.MatchTS = best
	return d
}

// OnRequest registers a new import request at timestamp x (request
// timestamps must be increasing), evaluates it against the exports seen so
// far, and returns the decision this process reports to its rep.
func (m *Manager) OnRequest(x float64) (RequestResult, error) {
	if len(m.requests) > 0 && x <= m.requests[len(m.requests)-1].x {
		return RequestResult{}, fmt.Errorf(
			"buffer: request timestamp %g not greater than previous %g (the model requires increasing requests)",
			x, m.requests[len(m.requests)-1].x)
	}
	r := &request{
		index:  len(m.requests),
		x:      x,
		region: m.cfg.Policy.Region(x, m.cfg.Tol),
		candTS: math.NaN(),
	}
	m.requests = append(m.requests, r)
	m.newestLo, m.newestHi, m.newestX = r.region.Lo, r.region.Hi, x

	m.fig(figEvent{name: figRequest, req: x})

	d := m.matcher.Evaluate(x)
	if d.Result == match.Pending && m.finished {
		// No further exports: decide from the buffered versions.
		d = m.closedDecision(r)
	}
	res := RequestResult{ReqIndex: r.index, Decision: d}
	m.fig(replyEvent(x, d))

	var sends []SendItem
	switch d.Result {
	case match.Match:
		sends = m.decide(r, match.Match, d.MatchTS, false)
	case match.NoMatch:
		sends = m.decide(r, match.NoMatch, 0, false)
	default:
		// Pending: seed the candidate from buffered in-region entries.
		r.candTS = m.currentCandidate(r)
	}
	res.Sends = sends
	m.sweep()
	return res, nil
}

// OnFinal applies the rep's final answer for a request this process reported
// PENDING (the buddy-help message). If the process has already decided
// locally, the answers must agree — disagreement is a Property-1 violation.
func (m *Manager) OnFinal(reqIndex int, result match.Result, matchTS float64) ([]SendItem, error) {
	if reqIndex < 0 || reqIndex >= len(m.requests) {
		return nil, fmt.Errorf("buffer: OnFinal for unknown request %d", reqIndex)
	}
	r := m.requests[reqIndex]
	if result == match.Pending {
		return nil, fmt.Errorf("buffer: OnFinal with PENDING for request %d", reqIndex)
	}
	if r.decided {
		if r.result != result || (result == match.Match && r.matchTS != matchTS) {
			return nil, fmt.Errorf(
				"buffer: Property 1 violation: request D@%g decided %v/D@%g locally but %v/D@%g collectively",
				r.x, r.result, r.matchTS, result, matchTS)
		}
		return nil, nil
	}
	m.fig(figEvent{name: figBuddy, req: r.x, result: result, ts: matchTS})
	sends := m.decide(r, result, matchTS, true)
	m.sweep()
	return sends, nil
}

// Offer processes one export call: it records the timestamp, resolves any
// requests this export decides, applies the buffer/skip rule (copying data
// when buffering is required), and releases newly freeable entries.
func (m *Manager) Offer(ts float64, data []float64) (OfferResult, error) {
	if m.finished {
		return OfferResult{}, fmt.Errorf("buffer: export D@%g after Finish", ts)
	}
	if err := m.matcher.AddExport(ts); err != nil {
		return OfferResult{}, err
	}
	m.stats.Exports++

	var out OfferResult

	// 1. Re-evaluate undecided requests: this export may close their
	// regions. Also update candidates for requests still pending.
	for _, r := range m.requests {
		if r.decided {
			continue
		}
		if r.region.Contains(ts) && m.beatsCandidate(r, ts) {
			r.candTS = ts
		}
		d := m.matcher.Evaluate(r.x)
		if d.Result == match.Pending {
			continue
		}
		out.Resolutions = append(out.Resolutions, Resolution{ReqIndex: r.index, ReqTS: r.x, Decision: d})
		m.fig(replyEvent(r.x, d))
		out.Sends = append(out.Sends, m.decide(r, d.Result, d.MatchTS, false)...)
	}
	// Verify earlier buddy-delivered decisions once our own exports suffice
	// to check them (Property-1 self check).
	if err := m.verifyBuddyDecisions(); err != nil {
		return OfferResult{}, err
	}

	// 2. Buffer-or-skip decision for the new object.
	if m.needed(ts) {
		e, err := m.store(ts, data)
		if err != nil {
			return OfferResult{}, err
		}
		out.Buffered = true
		out.CopyTime = e.CopyTime
		m.fig(figEvent{name: figCopy, ts: ts})
		// If this export is the known match of a decided request, it is
		// ready to send right now (Figure 5 lines 14-16).
		for _, r := range m.requests {
			if r.decided && r.result == match.Match && !r.dataSent && r.matchTS == ts {
				out.Sends = append(out.Sends, m.markSend(r, e))
			}
		}
	} else {
		m.stats.Skips++
		m.fig(figEvent{name: figSkip, ts: ts})
	}

	m.sweep()
	return out, nil
}

// decide finalizes a request and returns any send that became possible.
func (m *Manager) decide(r *request, result match.Result, matchTS float64, viaBuddy bool) []SendItem {
	r.decided = true
	r.result = result
	r.matchTS = matchTS
	r.viaBuddy = viaBuddy
	if !viaBuddy {
		r.verified = true
	}
	if result != match.Match {
		return nil
	}
	if e, ok := m.entries[matchTS]; ok && !r.dataSent {
		return []SendItem{m.markSend(r, e)}
	}
	return nil
}

// markSend hands a matched entry out for transfer.
func (m *Manager) markSend(r *request, e *Entry) SendItem {
	r.dataSent = true
	e.Sent = true
	e.pendingTransfers++
	m.stats.Sends++
	m.fig(figEvent{name: figSend, ts: e.TS})
	return SendItem{ReqIndex: r.index, ReqTS: r.x, MatchTS: e.TS, Data: e.Data, CopyTime: e.CopyTime}
}

// verifyBuddyDecisions re-derives buddy-delivered answers from local exports
// once possible, enforcing Property 1.
func (m *Manager) verifyBuddyDecisions() error {
	for _, r := range m.requests {
		if !r.decided || r.verified {
			continue
		}
		d := m.matcher.Evaluate(r.x)
		if d.Result == match.Pending {
			continue
		}
		if d.Result != r.result || (d.Result == match.Match && d.MatchTS != r.matchTS) {
			return fmt.Errorf(
				"buffer: Property 1 violation: buddy-help said %v/D@%g for D@%g but local exports give %v/D@%g",
				r.result, r.matchTS, r.x, d.Result, d.MatchTS)
		}
		r.verified = true
	}
	return nil
}

// beatsCandidate reports whether a new in-region export displaces the
// current candidate of an undecided request.
func (m *Manager) beatsCandidate(r *request, ts float64) bool {
	if math.IsNaN(r.candTS) {
		return true
	}
	switch m.cfg.Policy {
	case match.REGL:
		return ts > r.candTS // closer to x from below
	case match.REGU:
		return false // first candidate decides immediately; nothing displaces it
	default: // REG: strictly closer wins; ties keep the earlier
		return math.Abs(ts-r.x) < math.Abs(r.candTS-r.x)
	}
}

// currentCandidate seeds a new request's candidate from already-buffered
// entries (needed when a request's region covers past exports).
func (m *Manager) currentCandidate(r *request) float64 {
	best := math.NaN()
	for ts := range m.entries {
		if !r.region.Contains(ts) {
			continue
		}
		if math.IsNaN(best) {
			best = ts
			continue
		}
		if better(m.cfg.Policy, r.x, ts, best) {
			best = ts
		}
	}
	return best
}

// better reports whether a beats b as the match for request x.
func better(p match.Policy, x, a, b float64) bool {
	switch p {
	case match.REGL:
		return a > b
	case match.REGU:
		return a < b
	default:
		da, db := math.Abs(a-x), math.Abs(b-x)
		if da != db {
			return da < db
		}
		return a < b // tie to the earlier timestamp
	}
}

// needed decides whether a freshly exported object must be buffered.
func (m *Manager) needed(ts float64) bool {
	if len(m.requests) == 0 || ts > m.newestHi {
		// Beyond every known acceptable region: a future request may want it
		// (Figure 3(a), the importer-runs-slower case).
		return true
	}
	for _, r := range m.requests {
		if r.decided {
			if r.result == match.Match && r.matchTS == ts {
				return true // it IS a known match
			}
			continue
		}
		if r.region.Contains(ts) && ts == r.candTS {
			return true // current best candidate of a live request
		}
	}
	// Not required by any live request. Future requests have strictly larger
	// timestamps, so their regions lie strictly above the newest lower bound.
	if ts <= m.newestLo {
		return false
	}
	// ts in (newestLo, newestHi]:
	switch m.cfg.Policy {
	case match.REGL:
		// Skippable iff a committed later timestamp <= newest request
		// dominates it for every future region that could contain it: a
		// known match or live candidate above ts. (This is exactly the skip
		// buddy-help enables: Figure 5 lines 10-13.)
		return !m.committedAbove(ts)
	default:
		// REGU: a future request x' in (newestX, ts] could match ts.
		// REG: later exports do not dominate earlier ones for all future
		// requests. Keep it.
		return true
	}
}

// committedAbove reports whether some known match or live candidate t* with
// ts < t* <= newest request timestamp exists.
func (m *Manager) committedAbove(ts float64) bool {
	for _, r := range m.requests {
		var t float64
		switch {
		case r.decided && r.result == match.Match:
			t = r.matchTS
		case !r.decided && !math.IsNaN(r.candTS):
			t = r.candTS
		default:
			continue
		}
		if t > ts && t <= m.newestX {
			return true
		}
	}
	return false
}

// retain reports whether a buffered entry must be kept.
func (m *Manager) retain(e *Entry) bool {
	if len(m.requests) == 0 || e.TS > m.newestHi {
		return true
	}
	for _, r := range m.requests {
		if r.decided {
			if r.result == match.Match && r.matchTS == e.TS {
				if !r.dataSent {
					return true // matched, transfer still owed
				}
				if m.cfg.Retain && !r.released {
					return true // kept for crash resync until the importer checkpoints
				}
			}
			continue
		}
		if r.region.Contains(e.TS) && e.TS == r.candTS {
			return true // live candidate
		}
	}
	if e.TS <= m.newestLo {
		return false
	}
	switch m.cfg.Policy {
	case match.REGL:
		return !m.committedAbove(e.TS)
	default:
		return true
	}
}

// sweep frees every no-longer-retained entry, coalescing the removals into
// one figure line.
func (m *Manager) sweep() {
	removed := m.sweepScratch[:0]
	for ts, e := range m.entries {
		if m.retain(e) {
			continue
		}
		removed = append(removed, ts)
		m.free(e)
	}
	m.sweepScratch = removed[:0]
	if len(removed) == 0 {
		return
	}
	sort.Float64s(removed)
	m.fig(figEvent{name: figRemove, ts: removed[0], ts2: removed[len(removed)-1]})
}

// free releases one entry and accounts unnecessary buffering time.
func (m *Manager) free(e *Entry) {
	delete(m.entries, e.TS)
	m.bytes -= int64(8 * len(e.Data))
	m.stats.Removes++
	if m.cfg.Release != nil {
		m.cfg.Release(e.TS)
	} else if e.pendingTransfers == 0 {
		// Recyclable: either never sent, or every consumer of a SendItem
		// aliasing this buffer has called TransferDone. An entry freed with
		// transfers still pending (Evict of a dead importer) goes to the
		// garbage collector instead — the in-flight transfer may still read
		// the slice.
		m.pool.Put(e.Data)
	}
	unsent := !e.Sent
	copyTime := e.CopyTime
	ts := e.TS
	// The Entry struct itself is never retained past free (SendItem copies
	// the fields it needs), so it is always recyclable; drop the data
	// reference so the slice can be collected when it wasn't pooled.
	e.Data = nil
	if len(m.entryFree) < 256 {
		m.entryFree = append(m.entryFree, e)
	}
	if !unsent {
		return
	}
	// Buffered but never transferred: the paper's unnecessary buffering.
	m.stats.UnnecessaryCopies++
	m.stats.UnnecessaryTime += copyTime
	if r := m.regionOf(ts); r != nil {
		r.unnecessary += copyTime
		r.unnecessaryCopies++
	}
}

// regionOf finds the most recent request whose acceptable region contains
// ts, for T_i attribution.
func (m *Manager) regionOf(ts float64) *request {
	for i := len(m.requests) - 1; i >= 0; i-- {
		if m.requests[i].region.Contains(ts) {
			return m.requests[i]
		}
	}
	return nil
}

// store copies data into the buffer ("call memcpy"), timing the copy.
func (m *Manager) store(ts float64, data []float64) (*Entry, error) {
	sz := int64(8 * len(data))
	if m.cfg.MaxBytes > 0 && m.bytes+sz > m.cfg.MaxBytes {
		// Free whatever is freeable before giving up.
		m.sweep()
		if m.bytes+sz > m.cfg.MaxBytes {
			return nil, fmt.Errorf("%w: need %d bytes, %d of %d in use",
				ErrBufferFull, sz, m.bytes, m.cfg.MaxBytes)
		}
	}
	var buf []float64
	var elapsed time.Duration
	if m.cfg.Snapshot != nil {
		start := m.cfg.Now()
		buf = m.cfg.Snapshot(ts, data)
		elapsed = m.cfg.Now().Sub(start)
	} else {
		buf = m.pool.Get(len(data))
		start := m.cfg.Now()
		copy(buf, data)
		elapsed = m.cfg.Now().Sub(start)
	}
	e := m.newEntry()
	e.TS, e.Data, e.CopyTime, e.Sent, e.pendingTransfers = ts, buf, elapsed, false, 0
	m.entries[ts] = e
	m.bytes += sz
	m.stats.Copies++
	m.stats.BytesCopied += sz
	m.stats.CopyTime += elapsed
	return e, nil
}

// newEntry reuses a recycled Entry struct when one is free.
func (m *Manager) newEntry() *Entry {
	if n := len(m.entryFree); n > 0 {
		e := m.entryFree[n-1]
		m.entryFree[n-1] = nil
		m.entryFree = m.entryFree[:n-1]
		return e
	}
	return &Entry{}
}
