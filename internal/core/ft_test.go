package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
)

// TestRecoverGroupShrinkAndContinue exercises the full intra-program recovery
// path through the core layer: a 4-process program runs a healthy step, one
// rank crashes (its dispatcher closes), the survivors' next collective fails
// with a typed error, and RecoverGroup revokes, agrees on the failed set, and
// swaps in a shrunk communicator on which the step re-runs with the
// survivor-subset result. Property 1: every survivor sees the identical
// failed set and the identical re-run result.
func TestRecoverGroupShrinkAndContinue(t *testing.T) {
	f := buildCoupling(t, Options{Diag: t.TempDir(), Timeout: 2 * time.Second}, 4, 2, 8, "REGL 1")
	prog := f.MustProgram("E")
	const dead = 2

	type outcome struct {
		failed []int
		sum    float64
		size   int
	}
	n := prog.Procs()
	results := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := prog.Process(r)

			// Healthy step: full-group sum 1+2+3+4.
			v, err := p.Comm().AllReduceScalar(float64(r+1), collective.Sum)
			if err != nil {
				errs[r] = err
				return
			}
			if v != 10 {
				errs[r] = fmt.Errorf("healthy step: got %v, want 10", v)
				return
			}
			if r == dead {
				p.d.Close() // crash: endpoint gone, peers see ErrUnknownAddr
				return
			}

			// Doomed step: must fail with a typed fault, never hang.
			if _, err := p.Comm().AllReduceScalar(float64(r+1), collective.Sum); err == nil {
				errs[r] = errors.New("doomed step succeeded with a dead rank")
				return
			} else if !isRankFault(err) {
				errs[r] = fmt.Errorf("doomed step: untyped error %v", err)
				return
			}

			failed, err := p.RecoverGroup()
			if err != nil {
				errs[r] = fmt.Errorf("RecoverGroup: %w", err)
				return
			}
			nc := p.Comm()
			if err := nc.Barrier(); err != nil {
				errs[r] = fmt.Errorf("shrunk barrier: %w", err)
				return
			}
			// Re-run the step on the shrunk group, keeping the original
			// contribution: survivor-subset sum 1+2+4.
			v, err = nc.AllReduceScalar(float64(r+1), collective.Sum)
			if err != nil {
				errs[r] = fmt.Errorf("shrunk allreduce: %w", err)
				return
			}
			results[r] = outcome{failed: failed, sum: v, size: nc.Size()}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	for r := 0; r < n; r++ {
		if r == dead {
			continue
		}
		got := results[r]
		if len(got.failed) != 1 || got.failed[0] != dead {
			t.Fatalf("rank %d agreed failed set %v, want [%d]", r, got.failed, dead)
		}
		if got.size != n-1 {
			t.Fatalf("rank %d shrunk size %d, want %d", r, got.size, n-1)
		}
		if got.sum != 7 {
			t.Fatalf("rank %d shrunk sum %v, want 7 (survivor subset)", r, got.sum)
		}
	}

	// The recovery sequence is visible as flt.* spans on the survivors'
	// rings (the first rank to revoke records flt.revoke; the rest are
	// revoked by its flood)...
	names := map[string]bool{}
	for r := 0; r < n; r++ {
		for _, sp := range f.tracer.Ring("E", r).Spans() {
			names[sp.Name] = true
		}
	}
	for _, name := range []string{"flt.revoke", "flt.agree", "flt.shrink"} {
		if !names[name] {
			t.Errorf("no %s span on program E's rings", name)
		}
	}

	// ...and in /statusz via the failure counters, which carry over to the
	// shrunk communicator.
	var status strings.Builder
	f.writeStatus(&status)
	for _, want := range []string{"failures:", "agreed=", "shrinks=", "revokes="} {
		if !strings.Contains(status.String(), want) {
			t.Errorf("statusz missing %q:\n%s", want, status.String())
		}
	}
}

// isRankFault reports whether err is one of the typed intra-program fault
// errors a collective may return once a sibling rank is gone.
func isRankFault(err error) bool {
	var rf *collective.RankFailedError
	return errors.As(err, &rf) || errors.Is(err, collective.ErrRevoked)
}
