package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// TestGoroutinesPerProgram counts what a started framework runs over the
// in-memory network (whose endpoints run nothing): per process the
// dispatcher's reader, the control loop, the data loop and one sender per
// export connection; per rep the dispatcher's reader and the rep loop, plus
// the heartbeat loop when heartbeats are on.
func TestGoroutinesPerProgram(t *testing.T) {
	const expProcs, impProcs = 2, 3
	for _, tc := range []struct {
		name      string
		heartbeat time.Duration
		perRep    int
	}{{"plain", 0, 2}, {"heartbeat", time.Minute, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			// Let goroutines of earlier tests finish before the first reading.
			before := runtime.NumGoroutine()
			for settled := 0; settled < 5; {
				testutil.Sleep(5 * time.Millisecond)
				if n := runtime.NumGoroutine(); n == before {
					settled++
				} else {
					before, settled = n, 0
				}
			}
			f := buildCoupling(t, Options{Heartbeat: tc.heartbeat}, expProcs, impProcs, 6, "REGL 1")
			want := expProcs*(3+1) + impProcs*3 + 2*tc.perRep
			got := runtime.NumGoroutine() - before
			for deadline := testutil.Now().Add(5 * time.Second); got != want && testutil.Now().Before(deadline); {
				testutil.Sleep(2 * time.Millisecond)
				got = runtime.NumGoroutine() - before
			}
			if got != want {
				t.Errorf("framework runs %d goroutines, want %d (E: %d procs x (dispatcher+ctl+data+1 sender), I: %d procs x 3, 2 reps x %d)",
					got, want, expProcs, impProcs, tc.perRep)
			}
			f.Close()
		})
	}
}

// TestCommDeadlinesFollowOptionsClock: a process's dispatcher takes
// Options.Clock, so a Comm receive deadline is virtual time under a virtual
// clock — an hour's timeout on a silent peer expires as soon as the clock is
// advanced, not after an hour of wall time.
func TestCommDeadlinesFollowOptionsClock(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	f := buildCoupling(t, Options{Clock: clk, Timeout: time.Hour}, 2, 1, 4, "REGL 1")
	errc := make(chan error, 1)
	go func() {
		_, err := f.MustProgram("E").Process(0).Comm().Recv(1, "never sent")
		errc <- err
	}()
	guard := time.After(5 * time.Second)
	for {
		clk.Advance(time.Hour) // fires the deadline once the receive has armed it
		select {
		case err := <-errc:
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("Recv = %v, want a timeout", err)
			}
			return
		case <-guard:
			t.Fatal("Recv still parked after virtual hours: its deadline is not on Options.Clock")
		case <-time.After(time.Millisecond):
		}
	}
}
