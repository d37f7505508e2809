package dst

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/vclock"
)

// Env is where a scenario (scenario.go) runs — everything the script does not
// own. attach returns the substrate below the reliable layer for one
// framework incarnation at a session epoch; closing what it returns detaches
// that incarnation's endpoints only (a simulated crash), never the
// environment. drive runs the scenario body and must not hang. The virtual
// environment is a World; the wall-clock ones are FaultEnv and TCPEnv.
type Env struct {
	seed    int64
	clock   vclock.Clock
	attach  func(epoch uint64) transport.Network
	drive   func(body func() error) error
	traffic func() Traffic
	close   func() error
}

// Close tears the environment's substrate down.
func (e *Env) Close() error { return e.close() }

// env is the virtual-clock environment: Views of w, driven by w.Run.
func (w *World) env() *Env {
	return &Env{
		seed:    w.cfg.Seed,
		clock:   w.clk,
		attach:  func(uint64) transport.Network { return w.View() },
		drive:   w.Run,
		traffic: w.traffic,
		close:   w.Close,
	}
}

// wallEnv is a wall-clock environment. Its driver is a watchdog: a body
// still running after limit fails the run (the script names the seed and what
// the network injected) and closes the substrate so blocked ranks return.
func wallEnv(e *Env, limit time.Duration) *Env {
	e.clock = vclock.Or(nil)
	e.drive = func(body func() error) error {
		done := make(chan error, 1)
		go func() { done <- body() }()
		watchdog := time.NewTimer(limit)
		defer watchdog.Stop()
		select {
		case err := <-done:
			return err
		case <-watchdog.C:
			e.close()
			return fmt.Errorf("dst: run hung for %v", limit)
		}
	}
	return e
}

// shared lets several frameworks attach to one network: Close is left to the
// environment (the reliable layer above closes the endpoints it registered).
type shared struct{ transport.Network }

func (shared) Close() error                { return nil }
func (s shared) Unwrap() transport.Network { return s.Network }

// FaultEnv is the wall-clock chaos environment: one seeded FaultNetwork
// (drops, delays, connection resets) over an in-memory network that every
// framework of the run shares.
func FaultEnv(cfg transport.FaultConfig, limit time.Duration) *Env {
	faulty := transport.NewFaultNetwork(transport.NewMemNetwork(), cfg)
	return wallEnv(&Env{
		seed:   cfg.Seed,
		attach: func(uint64) transport.Network { return shared{faulty} },
		traffic: func() Traffic {
			s := faulty.Stats()
			return Traffic{Delivered: s.Sent - s.Dropped, Dropped: s.Dropped, Delayed: s.Delayed}
		},
		close: faulty.Close,
	}, limit)
}

// TCPEnv is the wall-clock sockets environment: a TCP router on loopback;
// each framework incarnation dials it under its own session epoch.
func TCPEnv(limit time.Duration) (*Env, error) {
	router, err := transport.StartTCPRouter("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return wallEnv(&Env{
		attach: func(epoch uint64) transport.Network {
			tcp := transport.NewTCPNetwork(router.ListenAddr())
			tcp.SessionEpoch = epoch
			return tcp
		},
		traffic: func() Traffic { return Traffic{} },
		close:   router.Close,
	}, limit), nil
}
