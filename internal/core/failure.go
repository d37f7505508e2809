package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// ErrPeerDown is the sentinel matched (errors.Is) by every peer-failure
// error the framework produces. The concrete error is a *PeerDownError
// naming the dead program.
var ErrPeerDown = errors.New("core: peer program down")

// PeerDownError reports that a coupled peer program was declared dead — by
// heartbeat silence, or by the peer announcing its own failure. It fails the
// observing program: blocked Export/Import calls return it promptly instead
// of hanging until the blanket timeout, and export buffers held only for the
// dead peer's connections are evicted.
type PeerDownError struct {
	// Peer is the program declared dead; Observer the program that noticed.
	Peer, Observer string
	// Silence is how long the peer had been quiet (zero when the peer
	// announced its failure instead of going silent).
	Silence time.Duration
	// Cause carries the peer's own error text when it announced a failure.
	Cause string
}

// Error implements error.
func (e *PeerDownError) Error() string {
	switch {
	case e.Cause != "":
		return fmt.Sprintf("core: %s: peer program %s down: %s", e.Observer, e.Peer, e.Cause)
	case e.Silence > 0:
		return fmt.Sprintf("core: %s: peer program %s down (silent for %v)",
			e.Observer, e.Peer, e.Silence.Round(time.Millisecond))
	default:
		return fmt.Sprintf("core: %s: peer program %s down", e.Observer, e.Peer)
	}
}

// Is matches the ErrPeerDown sentinel.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// Heartbeat control-message tags (KindControl, rep -> peer rep).
const (
	hbTag   = "hb"   // periodic liveness beacon
	downTag = "down" // the sender's program failed; payload is an errorMsg
)

// failureDetector is the rep-side peer-liveness tracker. Heartbeats are sent
// at half the configured interval and act as leases: ANY message from a peer
// rep (heartbeat, request, answer, layout) renews its lease, so a busy
// coupling pays no false-positive risk. A peer that has been heard from at
// least once and then stays silent for more than 1.5x the interval is
// declared dead — within the 2x-interval bound the framework documents.
// Peers never heard from are not judged: a late joiner is the startup
// handshake's business (Options.Timeout), not the failure detector's.
type failureDetector struct {
	interval time.Duration
	clock    vclock.Clock

	mu       sync.Mutex
	lastSeen map[string]time.Time
	declared map[string]bool
}

func newFailureDetector(interval time.Duration, clock vclock.Clock) *failureDetector {
	return &failureDetector{
		interval: interval,
		clock:    vclock.Or(clock),
		lastSeen: make(map[string]time.Time),
		declared: make(map[string]bool),
	}
}

// touch renews a peer's lease.
func (fd *failureDetector) touch(peer string) {
	fd.mu.Lock()
	fd.lastSeen[peer] = fd.clock.Now()
	fd.mu.Unlock()
}

// expired returns the peers whose lease ran out, with their silence, marking
// them declared so each is reported once.
func (fd *failureDetector) expired() map[string]time.Duration {
	threshold := fd.interval + fd.interval/2
	fd.mu.Lock()
	defer fd.mu.Unlock()
	var out map[string]time.Duration
	for peer, seen := range fd.lastSeen {
		if fd.declared[peer] {
			continue
		}
		if silence := fd.clock.Since(seen); silence > threshold {
			fd.declared[peer] = true
			if out == nil {
				out = make(map[string]time.Duration)
			}
			out[peer] = silence
		}
	}
	return out
}

// reset un-declares a peer and renews its lease — a declared-dead peer
// rejoined (crash recovery), so the detector judges it afresh.
func (fd *failureDetector) reset(peer string) {
	fd.mu.Lock()
	fd.lastSeen[peer] = fd.clock.Now()
	fd.declared[peer] = false
	fd.mu.Unlock()
}

// peerStatus is one peer's liveness view for /statusz.
type peerStatus struct {
	Peer     string
	Since    time.Duration // silence since the last lease renewal
	Declared bool
}

// peers snapshots the detector's view of every peer heard from, sorted by
// name (diagnostics; the detector's own decisions use expired).
func (fd *failureDetector) peers() []peerStatus {
	fd.mu.Lock()
	out := make([]peerStatus, 0, len(fd.lastSeen))
	for peer, seen := range fd.lastSeen {
		out = append(out, peerStatus{Peer: peer, Since: fd.clock.Since(seen), Declared: fd.declared[peer]})
	}
	fd.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// peerPrograms returns the distinct peer programs the named program is
// coupled with (either side of any connection), excluding itself.
func (f *Framework) peerPrograms(name string) []string {
	seen := map[string]bool{name: true}
	var peers []string
	for _, conn := range f.cfg.Connections {
		for _, p := range []string{conn.Export.Program, conn.Import.Program} {
			if !seen[p] {
				seen[p] = true
				peers = append(peers, p)
			}
		}
	}
	return peers
}

// touchPeer renews the liveness lease of the sending rep when a message
// arrives from a peer program's representative — heartbeats are leases, and
// so is every piece of real protocol traffic (requests, answers, layouts).
func (r *repRunner) touchPeer(m transport.Message) {
	if m.Src.IsRep() && m.Src.Program != r.prog.name {
		r.fd.touch(m.Src.Program)
	}
}

// handleControl processes rep-to-rep control traffic: heartbeat beacons and
// peer failure announcements.
func (r *repRunner) handleControl(m transport.Message) {
	switch m.Tag {
	case hbTag:
		r.touchPeer(m)
	case downTag:
		var em errorMsg
		if r.prog.decode(m, em.fields) {
			r.prog.peerDown(&PeerDownError{Peer: m.Src.Program, Observer: r.prog.name, Cause: em.Text})
		}
	case rejoinTag:
		r.handleRejoin(m)
	case releaseTag:
		// Checkpoint ack from an importing peer: fan to our processes, whose
		// managers drop the retained versions it covers.
		r.toProcs(releaseTag, m.Payload, 0)
	default:
		r.prog.fail(fmt.Errorf("core: rep of %s: unknown control tag %q", r.prog.name, m.Tag))
	}
}

// heartbeatLoop is the rep's liveness goroutine: it beacons to every peer rep
// at interval/2 and checks leases at interval/4, so a dead peer is declared
// within 2x the configured interval. Send failures are ignored — an
// unreachable peer is exactly what the lease expiry will catch.
func (r *repRunner) heartbeatLoop(interval time.Duration, peers []string) {
	tick := r.prog.fw.opts.Clock.NewTicker(interval / 4)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-r.hbStop:
			return
		case <-tick.C():
		}
		if n++; n%2 == 1 {
			for _, peer := range peers {
				_ = r.d.Send(transport.Message{
					Kind: transport.KindControl,
					Dst:  transport.Rep(peer),
					Tag:  hbTag,
				})
			}
		}
		for peer, silence := range r.fd.expired() {
			r.prog.peerDown(&PeerDownError{Peer: peer, Observer: r.prog.name, Silence: silence})
		}
	}
}

// announceFailure tells every peer rep this program is going down, so their
// detectors can fire immediately instead of waiting out the lease. Best
// effort: a peer that cannot be reached learns it from the silence.
func (r *repRunner) announceFailure(peers []string, cause error) {
	text := ""
	if cause != nil {
		text = cause.Error()
	}
	em := errorMsg{Text: text}
	payload := wire.Encode(em.fields)
	for _, peer := range peers {
		_ = r.d.Send(transport.Message{
			Kind:    transport.KindControl,
			Dst:     transport.Rep(peer),
			Tag:     downTag,
			Payload: payload,
		})
	}
}
