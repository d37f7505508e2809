package dst

import (
	"fmt"
	"runtime"
	"time"
)

// Driver tuning. The settle loop is a heuristic: the driver cannot see
// goroutines that are about to send (only ones that have), so it requires
// the world's activity counter to hold still for several consecutive polls
// before concluding the application is quiescent and virtual time may move.
// Premature advances are safe by construction — every virtual deadline in
// the scenarios (resend tickers, heartbeat leases, blocking timeouts) has
// orders-of-magnitude more slack than one settle round — but the stability
// requirement keeps the event order, and therefore the run time, tight.
const (
	settleRounds = 3
	settlePause  = 100 * time.Microsecond
	// idleGrace and idleLimit bound how long the driver waits in real time
	// when the simulation has nothing scheduled at all (no events, no
	// timers) before declaring the scenario stalled.
	idleGrace = 5 * time.Millisecond
	idleLimit = 400
	// maxVirtual bounds the total virtual time one scenario may consume; a
	// protocol livelock otherwise advances from resend tick to resend tick
	// forever without making progress.
	maxVirtual = 10 * time.Minute
)

// Run executes fn — the scenario body, which builds frameworks against the
// world's Views and drives the coupled workload — while this goroutine acts
// as the simulation driver: it lets the application run to quiescence,
// flushes message deliveries that have come due, and advances the virtual
// clock to the next scheduled delivery or timer deadline, whichever is
// earlier. It returns fn's result, or a stall diagnosis if the simulation
// stops making progress with fn still running.
func (w *World) Run(fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()

	limit := w.clk.Now().Add(maxVirtual)
	idle := 0
	for {
		select {
		case err := <-done:
			return err
		default:
		}
		w.settle()
		if w.deliverDue() > 0 {
			idle = 0
			continue
		}
		// Quiescent with nothing deliverable now: advance virtual time.
		next, okE := w.nextDue()
		tnext, okT := w.clk.NextDeadline()
		var target time.Time
		switch {
		case okE && (!okT || next.Before(tnext)):
			target = next
		case okT:
			target = tnext
		default:
			// Nothing scheduled anywhere. Either fn is about to return, or
			// every goroutine is blocked on a message that will never come.
			select {
			case err := <-done:
				return err
			case <-time.After(idleGrace):
			}
			idle++
			if idle > idleLimit {
				return w.stallErr("no scheduled events or timers")
			}
			continue
		}
		idle = 0
		if target.After(limit) {
			return w.stallErr(fmt.Sprintf("virtual time limit %v exceeded", maxVirtual))
		}
		w.clk.AdvanceTo(target)
	}
}

// settle spins until the world's activity counter holds still for
// settleRounds consecutive polls, yielding the processor to the application
// goroutines between polls.
func (w *World) settle() {
	last := w.activity.Load()
	stable := 0
	for stable < settleRounds {
		runtime.Gosched()
		time.Sleep(settlePause)
		cur := w.activity.Load()
		if cur == last {
			stable++
		} else {
			stable = 0
			last = cur
		}
	}
}

// stallErr reports a wedged simulation with enough state to reproduce and
// diagnose it.
func (w *World) stallErr(why string) error {
	w.mu.Lock()
	pending := len(w.events)
	w.mu.Unlock()
	return fmt.Errorf("dst: simulation stalled (%s): seed=%d vnow=%v pending_events=%d traffic=%+v sleepers=%d",
		why, w.cfg.Seed, w.clk.Now().Sub(time.Unix(0, 0)), pending, w.traffic(), w.clk.Sleepers())
}
