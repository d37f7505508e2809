package buffer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/match"
)

// opSequence drives a manager through a random but legal operation sequence
// and checks structural invariants after every step.
func opSequence(seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	policy := match.Policy(r.Intn(3))
	tol := r.Float64() * 6
	m, err := NewManager(Config{Policy: policy, Tol: tol})
	if err != nil {
		return false
	}
	exportTS := 0.0
	requestTS := 0.0
	var pendingReqs []int

	check := func() bool {
		// Invariant: byte accounting matches the live entry set.
		var want int64
		live := 0
		for ts := exportTS; ts > 0; ts-- {
			if m.Buffered(ts) {
				live++
				want += 8 * 3
			}
		}
		if live != len(m.entries) || want != m.BufferedBytes() {
			return false
		}
		st := m.Stats()
		// Copies+Skips == Exports; Sends <= Copies; Removes <= Copies.
		if st.Copies+st.Skips != st.Exports {
			return false
		}
		if st.Sends > st.Copies || st.Removes > st.Copies {
			return false
		}
		if st.UnnecessaryCopies > st.Removes {
			return false
		}
		// Live entries + removed == copied.
		if st.Copies-st.Removes != len(m.entries) {
			return false
		}
		return true
	}

	for step := 0; step < 60; step++ {
		switch r.Intn(3) {
		case 0, 1: // export (integers so Buffered lookups in check() work)
			exportTS++
			if _, err := m.Offer(exportTS, []float64{exportTS, 0, 0}); err != nil {
				return false
			}
		case 2: // request ahead of the previous one
			requestTS += 1 + r.Float64()*5
			res, err := m.OnRequest(requestTS)
			if err != nil {
				return false
			}
			if res.Decision.Result == match.Pending {
				pendingReqs = append(pendingReqs, res.ReqIndex)
			}
		}
		// Occasionally deliver a truthful buddy answer for a pending request.
		if len(pendingReqs) > 0 && r.Intn(4) == 0 {
			idx := pendingReqs[0]
			x := m.Stats().PerRequest[idx].ReqTS
			// Oracle over the eventual export stream: integers 1..inf; the
			// true match under the policy on the region.
			region := m.Policy().Region(x, m.Tolerance())
			best, found := oracleIntMatch(m.Policy(), x, region.Lo, region.Hi)
			var err error
			if found {
				_, err = m.OnFinal(idx, match.Match, best)
			} else {
				_, err = m.OnFinal(idx, match.NoMatch, 0)
			}
			if err != nil {
				return false
			}
			pendingReqs = pendingReqs[1:]
		}
		if !check() {
			return false
		}
	}
	return true
}

// oracleIntMatch computes the match among the integer export grid 1,2,3,...
// for a request at x with region [lo, hi].
func oracleIntMatch(p match.Policy, x, lo, hi float64) (float64, bool) {
	first := math.Ceil(lo)
	if first < 1 {
		first = 1
	}
	last := math.Floor(hi)
	if first > last {
		return 0, false
	}
	switch p {
	case match.REGL:
		return last, true
	case match.REGU:
		return first, true
	default: // REG: integer closest to x within [first, last], ties earlier
		cand := math.Round(x)
		if cand < first {
			cand = first
		}
		if cand > last {
			cand = last
		}
		// Handle the .5 tie: Round rounds half away from zero; the model
		// breaks ties to the earlier timestamp.
		if math.Abs((cand-1)-x) == math.Abs(cand-x) && cand-1 >= first {
			cand--
		}
		return cand, true
	}
}

// TestQuickManagerInvariants drives random legal operation sequences.
func TestQuickManagerInvariants(t *testing.T) {
	f := func(seed int64) bool { return opSequence(seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickStatsMonotone: statistics only grow.
func TestQuickStatsMonotone(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := NewManager(Config{Policy: match.REGL, Tol: 2})
		if err != nil {
			return false
		}
		prev := m.Stats()
		ts, x := 0.0, 0.0
		for i := 0; i < int(steps%40); i++ {
			if r.Intn(2) == 0 {
				ts++
				if _, err := m.Offer(ts, []float64{1}); err != nil {
					return false
				}
			} else {
				x += 1 + r.Float64()
				if _, err := m.OnRequest(x); err != nil {
					return false
				}
			}
			cur := m.Stats()
			if cur.Exports < prev.Exports || cur.Copies < prev.Copies ||
				cur.Skips < prev.Skips || cur.Sends < prev.Sends ||
				cur.Removes < prev.Removes || cur.UnnecessaryCopies < prev.UnnecessaryCopies ||
				cur.CopyTime < prev.CopyTime || cur.UnnecessaryTime < prev.UnnecessaryTime {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
