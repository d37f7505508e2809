// Package rep implements the decision logic of a program's representative
// process — the "low-overhead control gateway" each parallel program runs in
// the paper's framework (Section 4). For every import request forwarded to
// the program's processes, the rep collects their MATCH / NO MATCH / PENDING
// responses, validates that the mixture is one of the five legal cases, and
// produces the final collective answer plus the list of PENDING processes
// that should receive a buddy-help message and the laggard, the process
// furthest behind.
//
// The aggregation state machine here is transport-agnostic (and so unit
// testable in isolation); the core package wires it to the network.
package rep

import (
	"fmt"
	"math"

	"repro/internal/match"
)

// Response is one process's (possibly repeated) answer to a forwarded
// request. Processes re-respond when a previously PENDING request becomes
// locally decidable.
type Response struct {
	Rank    int
	Result  match.Result
	MatchTS float64
	Latest  float64
}

// Answer is the collective final answer for one request.
type Answer struct {
	Result  match.Result
	MatchTS float64
	// BuddyRanks lists the processes whose last response was PENDING when
	// the answer was formed — the recipients of buddy-help messages.
	BuddyRanks []int
	// Laggard is the process whose last response reported the strictly
	// smallest Latest export timestamp when the answer was formed — the
	// slowest exporter, p_s in the paper — or -1 when several tie for it.
	Laggard int
}

// ViolationError reports a violation of the paper's Property 1: processes of
// the same program answered inconsistently for the same request.
type ViolationError struct {
	ReqTS  float64
	Detail string
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("rep: Property 1 violation for request D@%g: %s", e.ReqTS, e.Detail)
}

// Request aggregates responses for one import request.
type Request struct {
	reqTS float64
	n     int

	responded int       // distinct ranks that responded at least once
	latest    []float64 // each rank's last reported Latest; NaN = no response yet
	last      []match.Result
	decided   bool
	final     Answer
}

// NewRequest returns an aggregator for a request at timestamp reqTS over a
// program with n processes.
func NewRequest(reqTS float64, n int) *Request {
	r := &Request{
		reqTS:  reqTS,
		n:      n,
		latest: make([]float64, n),
		last:   make([]match.Result, n),
	}
	for i := range r.last {
		r.last[i] = match.Pending
		r.latest[i] = math.NaN()
	}
	return r
}

// Add incorporates one response. It returns a non-nil *Answer exactly once:
// when the final collective answer is formed — that is, when every process
// has responded at least once and at least one response is decisive. Until
// then it returns (nil, nil). Responses that contradict Property 1 (MATCH
// mixed with NO MATCH, disagreeing MATCH timestamps, a decided process
// re-deciding differently, or any decisive response after the final answer
// that disagrees with it) yield a ViolationError.
//
// A process may respond PENDING and then respond again when its local state
// advances; only its latest response counts.
func (r *Request) Add(resp Response) (*Answer, error) {
	if resp.Rank < 0 || resp.Rank >= r.n {
		return nil, fmt.Errorf("rep: response from rank %d outside program of %d", resp.Rank, r.n)
	}
	prev := r.last[resp.Rank]
	if prev != match.Pending {
		// A decided process must never change its answer.
		if resp.Result != prev {
			return nil, &ViolationError{ReqTS: r.reqTS, Detail: fmt.Sprintf(
				"rank %d answered %v after already answering %v", resp.Rank, resp.Result, prev)}
		}
		if prev == match.Match && resp.MatchTS != r.final.MatchTS {
			return nil, &ViolationError{ReqTS: r.reqTS, Detail: fmt.Sprintf(
				"rank %d re-matched D@%g after matching D@%g", resp.Rank, resp.MatchTS, r.final.MatchTS)}
		}
		return nil, nil
	}
	if math.IsNaN(r.latest[resp.Rank]) {
		r.responded++
	}
	r.latest[resp.Rank] = resp.Latest
	r.last[resp.Rank] = resp.Result

	if resp.Result != match.Pending {
		if r.decided {
			// Late decisive response must agree with the formed answer.
			if resp.Result != r.final.Result ||
				(resp.Result == match.Match && resp.MatchTS != r.final.MatchTS) {
				return nil, &ViolationError{ReqTS: r.reqTS, Detail: fmt.Sprintf(
					"rank %d answered %v/D@%g after collective answer %v/D@%g",
					resp.Rank, resp.Result, resp.MatchTS, r.final.Result, r.final.MatchTS)}
			}
			return nil, nil
		}
		// Validate against other decisive responses received so far.
		for rank, res := range r.last {
			if rank == resp.Rank || res == match.Pending {
				continue
			}
			if res != resp.Result {
				return nil, &ViolationError{ReqTS: r.reqTS, Detail: fmt.Sprintf(
					"rank %d answered %v while rank %d answered %v", resp.Rank, resp.Result, rank, res)}
			}
		}
		if resp.Result == match.Match {
			if r.final.Result == match.Match && r.final.MatchTS != resp.MatchTS {
				return nil, &ViolationError{ReqTS: r.reqTS, Detail: fmt.Sprintf(
					"rank %d matched D@%g while others matched D@%g",
					resp.Rank, resp.MatchTS, r.final.MatchTS)}
			}
		}
		// Stash the decisive content (not yet final until all responded).
		r.final.Result = resp.Result
		r.final.MatchTS = resp.MatchTS
	}

	if r.responded < r.n || r.final.Result == match.Pending {
		return nil, nil
	}
	// All processes responded and at least one was decisive: the collective
	// answer is that decisive result (a PENDING+MATCH mixture answers MATCH;
	// PENDING+NOMATCH answers NO MATCH). The still-PENDING ranks get
	// buddy-help; the one furthest behind is the laggard.
	r.decided = true
	r.final.Laggard = -1
	least := math.Inf(1)
	for rank, res := range r.last {
		if res == match.Pending {
			r.final.BuddyRanks = append(r.final.BuddyRanks, rank)
		}
		switch l := r.latest[rank]; {
		case l < least:
			least, r.final.Laggard = l, rank
		case l == least:
			r.final.Laggard = -1
		}
	}
	ans := r.final
	return &ans, nil
}
