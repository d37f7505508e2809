package collective

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/transport"
)

// ftGroup builds a size-process group whose ranks the caller drives manually,
// returning the comms and the per-rank dispatchers (so tests can kill a rank
// by closing its dispatcher, which unregisters the in-memory address).
func ftGroup(t *testing.T, size int, timeout time.Duration) (*transport.MemNetwork, []*Comm, []*transport.Dispatcher) {
	t.Helper()
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() })
	comms := make([]*Comm, size)
	disps := make([]*transport.Dispatcher, size)
	for r := 0; r < size; r++ {
		ep, err := net.Register(transport.Proc("G", r))
		if err != nil {
			t.Fatal(err)
		}
		disps[r] = transport.NewDispatcher(ep)
		comms[r], err = New(disps[r], "G", r, size)
		if err != nil {
			t.Fatal(err)
		}
		comms[r].SetTimeout(timeout)
	}
	return net, comms, disps
}

// runRanks runs fn concurrently on the listed ranks and returns each rank's
// error (indexed like ranks).
func runRanks(comms []*Comm, ranks []int, fn func(c *Comm) error) []error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			errs[i] = fn(comms[r])
		}(i, r)
	}
	wg.Wait()
	return errs
}

func TestRankFailedErrorIsTimeout(t *testing.T) {
	err := error(&RankFailedError{Program: "G", Rank: 3, Op: "allreduce", Seq: 7, Round: 1})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Error("RankFailedError does not unwrap to transport.ErrTimeout")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 3 {
		t.Error("errors.As failed to recover the typed suspicion")
	}
	for _, want := range []string{"rank 3", "allreduce", "seq 7"} {
		if !containsStr(err.Error(), want) {
			t.Errorf("error text %q missing %q", err.Error(), want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAgreeFailuresNoFailure: a healthy group agrees on the empty set at
// every size, repeatedly (episode sequence numbers keep episodes apart).
func TestAgreeFailuresNoFailure(t *testing.T) {
	for _, n := range groupSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) error {
				for ep := 0; ep < 3; ep++ {
					failed, err := c.AgreeFailures()
					if err != nil {
						return fmt.Errorf("episode %d: %w", ep, err)
					}
					if len(failed) != 0 {
						return fmt.Errorf("episode %d agreed non-empty set %v in a healthy group", ep, failed)
					}
				}
				return nil
			})
		})
	}
}

// TestAgreeFailuresDeadRank: one rank's address is gone (crashed process);
// every survivor runs the intended revoke→agree sequence and they all decide
// the identical singleton set.
func TestAgreeFailuresDeadRank(t *testing.T) {
	const n, dead = 5, 2
	_, comms, disps := ftGroup(t, n, 2*time.Second)
	disps[dead].Close()
	survivors := []int{0, 1, 3, 4}
	sets := make([][]int, len(survivors))
	errs := runRanks(comms, survivors, func(c *Comm) error {
		c.Revoke()
		failed, err := c.AgreeFailures()
		if err != nil {
			return err
		}
		for i, r := range survivors {
			if comms[r] == c {
				sets[i] = failed
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", survivors[i], err)
		}
	}
	for i, set := range sets {
		if !reflect.DeepEqual(set, []int{dead}) {
			t.Errorf("rank %d agreed %v, want [%d]", survivors[i], set, dead)
		}
	}
}

// TestAgreeFailuresSilentRank: the failed rank's endpoint is still registered
// but the rank never participates — detection must come from agreement
// timeouts (non-participation), not transport evidence, and all survivors
// still converge on the identical set.
func TestAgreeFailuresSilentRank(t *testing.T) {
	const n, dead = 4, 1
	_, comms, _ := ftGroup(t, n, 700*time.Millisecond)
	survivors := []int{0, 2, 3}
	sets := make([][]int, len(survivors))
	errs := runRanks(comms, survivors, func(c *Comm) error {
		failed, err := c.AgreeFailures()
		if err != nil {
			return err
		}
		for i, r := range survivors {
			if comms[r] == c {
				sets[i] = failed
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", survivors[i], err)
		}
	}
	for i, set := range sets {
		if !reflect.DeepEqual(set, []int{dead}) {
			t.Errorf("rank %d agreed %v, want [%d]", survivors[i], set, dead)
		}
	}
}

// TestAgreeKillDuringAgreement: a rank dies *during* the agreement episode —
// its address vanishes partway through — and the survivors still converge,
// adding it to the set on the fly.
func TestAgreeKillDuringAgreement(t *testing.T) {
	const n, dying = 5, 4
	_, comms, disps := ftGroup(t, n, 1*time.Second)
	survivors := []int{0, 1, 2, 3}
	go func() {
		time.Sleep(150 * time.Millisecond)
		disps[dying].Close()
	}()
	sets := make([][]int, len(survivors))
	errs := runRanks(comms, survivors, func(c *Comm) error {
		failed, err := c.AgreeFailures()
		if err != nil {
			return err
		}
		for i, r := range survivors {
			if comms[r] == c {
				sets[i] = failed
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", survivors[i], err)
		}
	}
	for i := 1; i < len(sets); i++ {
		if !reflect.DeepEqual(sets[i], sets[0]) {
			t.Fatalf("divergent agreement: rank %d got %v, rank %d got %v",
				survivors[i], sets[i], survivors[0], sets[0])
		}
	}
	if !reflect.DeepEqual(sets[0], []int{dying}) {
		t.Errorf("agreed %v, want [%d]", sets[0], dying)
	}
}

// TestOpsFailFastOnDeadRank is the op × algorithm failure matrix: with one
// rank's address gone, every collective on every survivor either succeeds or
// returns a typed suspicion within the deadline bound — never hangs — and at
// least one survivor reports the RankFailedError.
func TestOpsFailFastOnDeadRank(t *testing.T) {
	const n, dead = 5, 2
	vec := func(c *Comm) []float64 { return []float64{float64(c.Rank() + 1)} }
	parts := func(c *Comm) [][]byte {
		p := make([][]byte, n)
		for i := range p {
			p[i] = []byte{byte(c.Rank()), byte(i)}
		}
		return p
	}
	long := make([]float64, n)
	cases := []struct {
		name string
		run  func(c *Comm) error
	}{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"bcast/binomial", func(c *Comm) error { _, err := c.force(Binomial).Bcast(0, []byte("x")); return err }},
		{"bcast/binomial-seg", func(c *Comm) error { _, err := c.force(BinomialSeg).Bcast(0, make([]byte, 4096)); return err }},
		{"reduce", func(c *Comm) error { _, err := c.Reduce(0, vec(c), Sum); return err }},
		{"allreduce/recdbl", func(c *Comm) error { return c.force(RecursiveDoubling).AllReduceInPlace(vec(c), Sum) }},
		{"allreduce/ring", func(c *Comm) error { return c.force(Ring).AllReduceInPlace(long, Sum) }},
		{"gather/linear", func(c *Comm) error { _, err := c.Gather(0, []byte{1}); return err }},
		{"scatter/linear", func(c *Comm) error {
			var in [][]byte
			if c.Rank() == 0 {
				in = parts(c)
			}
			_, err := c.Scatter(0, in)
			return err
		}},
		{"allgather/linear", func(c *Comm) error { _, err := c.force(Linear).AllGather([]byte{2}); return err }},
		{"allgather/ring", func(c *Comm) error { _, err := c.force(Ring).AllGather([]byte{2}); return err }},
		{"alltoall/linear", func(c *Comm) error { _, err := c.force(Linear).AllToAll(parts(c)); return err }},
		{"alltoall/pairwise", func(c *Comm) error { _, err := c.force(Pairwise).AllToAll(parts(c)); return err }},
		{"scan", func(c *Comm) error { _, err := c.Scan(vec(c), Sum); return err }},
		{"reducescatter/composed", func(c *Comm) error { _, err := c.force(Composed).ReduceScatter(long, Sum); return err }},
		{"reducescatter/ring", func(c *Comm) error { _, err := c.force(Ring).ReduceScatter(long, Sum); return err }},
	}
	survivors := []int{0, 1, 3, 4}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const timeout = 500 * time.Millisecond
			_, comms, disps := ftGroup(t, n, timeout)
			disps[dead].Close()
			start := time.Now()
			errs := runRanks(comms, survivors, tc.run)
			elapsed := time.Since(start)
			// Survivors may chain timeouts (waiting on a live rank that itself
			// timed out), but the bound stays a small multiple of the deadline.
			if elapsed > 10*timeout+2*time.Second {
				t.Errorf("matrix case took %v, deadline bound violated", elapsed)
			}
			typed := 0
			for i, err := range errs {
				if err == nil {
					continue
				}
				var rf *RankFailedError
				if errors.As(err, &rf) {
					typed++
					continue
				}
				if errors.Is(err, ErrRevoked) || errors.Is(err, transport.ErrTimeout) {
					continue
				}
				t.Errorf("rank %d: untyped failure %v", survivors[i], err)
			}
			if typed == 0 {
				t.Error("no survivor returned a RankFailedError")
			}
		})
	}
}

// TestSendToClosingRankIsTyped: a rank whose endpoint closes under a sender
// blocked on its full mailbox is hard evidence like any vanished address —
// sendRaw returns a RankFailedError and marks the rank dead, it does not
// pass on an untyped transport error. Whether the close lands before the
// sender's address lookup or while it is blocked, the outcome is the same;
// the pause only steers the run towards the blocked case, which nothing
// outside the transport can observe.
func TestSendToClosingRankIsTyped(t *testing.T) {
	net := transport.NewMemNetworkDepth(1)
	defer net.Close()
	ep0, err := net.Register(transport.Proc("G", 0))
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Register(transport.Proc("G", 1)) // no dispatcher: nothing drains its mailbox
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(transport.NewDispatcher(ep0), "G", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, hdrLen)
	if err := c.sendRaw(1, opBarrier, payload); err != nil { // fills rank 1's mailbox
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- c.sendRaw(1, opBarrier, payload) }()
	time.Sleep(5 * time.Millisecond)
	ep1.Close()
	err = <-errc
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("send to a closing rank returned %v, want RankFailedError for rank 1", err)
	}
	if c.deadSet == nil || !c.deadSet.has(1) {
		t.Error("closing rank not marked dead")
	}
}

// TestRevokeUnblocks: ranks blocked deep inside a collective with a long
// deadline unblock promptly — with ErrRevoked — when any rank revokes.
func TestRevokeUnblocks(t *testing.T) {
	const n = 3
	_, comms, _ := ftGroup(t, n, 60*time.Second)
	start := time.Now()
	errs := runRanks(comms, []int{0, 1, 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(100 * time.Millisecond)
			c.Revoke()
			return nil
		}
		err := c.Barrier()
		if !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("barrier returned %v, want ErrRevoked", err)
		}
		return nil
	})
	elapsed := time.Since(start)
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	if elapsed > 5*time.Second {
		t.Errorf("revocation took %v to unblock blocked ranks (deadline was 60s)", elapsed)
	}
}

// TestRevokedOpsReturnErrRevoked: every operation entry point refuses a
// revoked communicator, and a refused call consumes no sequence number.
func TestRevokedOpsReturnErrRevoked(t *testing.T) {
	_, comms, _ := ftGroup(t, 1, time.Second)
	c := comms[0]
	c.Revoke()
	v := []float64{1}
	ops := map[string]error{}
	_, err := c.Bcast(0, []byte{1})
	ops["bcast"] = err
	_, err = c.Reduce(0, v, Sum)
	ops["reduce"] = err
	ops["barrier"] = c.Barrier()
	ops["allreduce"] = c.AllReduceInPlace(v, Sum)
	_, err = c.Gather(0, []byte{1})
	ops["gather"] = err
	_, err = c.Scatter(0, [][]byte{{1}})
	ops["scatter"] = err
	_, err = c.AllGather([]byte{1})
	ops["allgather"] = err
	_, err = c.AllToAll([][]byte{{1}})
	ops["alltoall"] = err
	_, err = c.Scan(v, Sum)
	ops["scan"] = err
	_, err = c.ReduceScatter(v, Sum)
	ops["reducescatter"] = err
	for op, err := range ops {
		if !errors.Is(err, ErrRevoked) {
			t.Errorf("%s on revoked comm returned %v, want ErrRevoked", op, err)
		}
	}
	if c.opSeq != 0 {
		t.Errorf("revoked calls consumed %d sequence numbers, want 0", c.opSeq)
	}
}

// TestShrinkAndContinue is the full recovery pipeline: a rank dies
// mid-collective; every survivor suspects it, revokes, agrees on the
// identical set, shrinks, re-runs the interrupted operation on the survivor
// group, and then runs the whole op mix on the shrunk communicator. The
// shrunk-group result must equal the fault-free survivor-subset value.
func TestShrinkAndContinue(t *testing.T) {
	const n, dead = 5, 2
	const timeout = time.Second
	_, comms, disps := ftGroup(t, n, timeout)
	all := []int{0, 1, 2, 3, 4}
	survivors := []int{0, 1, 3, 4}
	// survivor-subset sum of rank+1 values
	const wantSum = 1 + 2 + 4 + 5

	// The victim dies only once every rank has left the healthy steps: a
	// survivor that detects the crash at once revokes at once, and the flood
	// would otherwise catch a slower rank still waiting in healthy step 1
	// (the odd rank of the remainder pair waits for its partner's post-fold),
	// which then sits the agreement out and is agreed dead too.
	var healthy sync.WaitGroup
	healthy.Add(n)
	errs := runRanks(comms, all, func(c *Comm) error {
		// Two healthy steps with the full group.
		err := func() error {
			defer healthy.Done()
			for i := 0; i < 2; i++ {
				got, err := c.AllReduceScalar(float64(c.Rank()+1), Sum)
				if err != nil {
					return fmt.Errorf("healthy step %d: %w", i, err)
				}
				if got != 1+2+3+4+5 {
					return fmt.Errorf("healthy step %d: sum %v", i, got)
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
		if c.Rank() == dead {
			// Crash: the address disappears mid-step for everyone else.
			healthy.Wait()
			return disps[dead].Close()
		}
		// The interrupted step fails with a typed suspicion or a revocation
		// raced from a faster-detecting survivor.
		interrupted := time.Now()
		_, err = c.AllReduceScalar(float64(c.Rank()+1), Sum)
		if err == nil {
			return errors.New("step with dead rank succeeded")
		}
		if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("interrupted step: unexpected error %w", err)
		}
		// Recover: revoke, agree, shrink.
		c.Revoke()
		failed, err := c.AgreeFailures()
		if err != nil {
			return fmt.Errorf("agree: %w", err)
		}
		if !reflect.DeepEqual(failed, []int{dead}) {
			return fmt.Errorf("agreed %v, want [%d]", failed, dead)
		}
		nc, err := c.Shrink(failed)
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		if nc.Size() != n-1 || nc.Epoch() != 1 {
			return fmt.Errorf("shrunk comm size=%d epoch=%d", nc.Size(), nc.Epoch())
		}
		// The parent is poisoned.
		if err := c.Barrier(); !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("parent comm after shrink: %v, want ErrRevoked", err)
		}
		// Re-run the interrupted operation on the survivor group, carrying the
		// *original* rank value: results must equal the fault-free
		// survivor-subset run.
		got, err := nc.AllReduceScalar(float64(c.Rank()+1), Sum)
		if err != nil {
			return fmt.Errorf("re-run on shrunk comm: %w", err)
		}
		if got != wantSum {
			return fmt.Errorf("shrunk allreduce = %v, want %v", got, wantSum)
		}
		// The documented recovery bound: detect -> revoke -> agree -> shrink
		// -> first operation in under four receive deadlines on every
		// survivor (the revoke flood spares them serial detection timeouts).
		if el := time.Since(interrupted); el >= 4*timeout {
			return fmt.Errorf("recovery took %v, want < %v", el, 4*timeout)
		}
		// Full op mix on the shrunk group.
		if err := nc.Barrier(); err != nil {
			return fmt.Errorf("shrunk barrier: %w", err)
		}
		var in []byte
		if nc.Rank() == 0 {
			in = []byte("post-shrink")
		}
		b, err := nc.Bcast(0, in)
		if err != nil || string(b) != "post-shrink" {
			return fmt.Errorf("shrunk bcast: %q %v", b, err)
		}
		sc, err := nc.ScanScalar(1, Sum)
		if err != nil || sc != float64(nc.Rank()+1) {
			return fmt.Errorf("shrunk scan: %v %v", sc, err)
		}
		parts, err := nc.AllGather([]byte{byte(nc.Rank())})
		if err != nil || len(parts) != nc.Size() {
			return fmt.Errorf("shrunk allgather: %v %v", parts, err)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", all[r], err)
		}
	}
	// Epochs, re-ranking and instruments are checked inside; finally make sure
	// survivors suspected/agreed/shrank through the counted path.
	_ = survivors
}

// TestShrinkEmptyRebuild: a spurious revocation (no actual death) recovers by
// agreeing on the empty set and shrinking in place — same size, bumped epoch,
// interrupted traffic discarded.
func TestShrinkEmptyRebuild(t *testing.T) {
	const n = 4
	_, comms, _ := ftGroup(t, n, 2*time.Second)
	errs := runRanks(comms, []int{0, 1, 2, 3}, func(c *Comm) error {
		c.Revoke()
		failed, err := c.AgreeFailures()
		if err != nil {
			return fmt.Errorf("agree: %w", err)
		}
		if len(failed) != 0 {
			return fmt.Errorf("agreed %v in a healthy group", failed)
		}
		nc, err := c.Shrink(failed)
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		if nc.Size() != n || nc.Rank() != c.Rank() || nc.Epoch() != 1 {
			return fmt.Errorf("rebuilt comm rank=%d size=%d epoch=%d", nc.Rank(), nc.Size(), nc.Epoch())
		}
		got, err := nc.AllReduceScalar(1, Sum)
		if err != nil || got != n {
			return fmt.Errorf("rebuilt allreduce: %v %v", got, err)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestDoubleShrink: failures across two episodes compose — the second Shrink
// re-ranks relative to the first, and the epoch keeps climbing.
func TestDoubleShrink(t *testing.T) {
	const n = 5
	_, comms, disps := ftGroup(t, n, time.Second)
	// Episode 1 kills base rank 1, episode 2 kills base rank 3 (group rank 2
	// after the first shrink).
	disps[1].Close()
	survivors := []int{0, 2, 3, 4}
	var mu sync.Mutex
	second := map[int]*Comm{} // base rank -> comm after first shrink
	errs := runRanks(comms, survivors, func(c *Comm) error {
		c.Revoke()
		failed, err := c.AgreeFailures()
		if err != nil {
			return err
		}
		nc, err := c.Shrink(failed)
		if err != nil {
			return err
		}
		mu.Lock()
		second[c.Rank()] = nc
		mu.Unlock()
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("episode 1 rank %d: %v", survivors[i], err)
		}
	}
	disps[3].Close()
	final := []int{0, 2, 4}
	errs = runRanks(comms, final, func(c *Comm) error {
		nc := second[c.Rank()]
		nc.Revoke()
		failed, err := nc.AgreeFailures()
		if err != nil {
			return err
		}
		nc2, err := nc.Shrink(failed)
		if err != nil {
			return err
		}
		if nc2.Size() != 3 || nc2.Epoch() != 2 {
			return fmt.Errorf("second shrink size=%d epoch=%d", nc2.Size(), nc2.Epoch())
		}
		got, err := nc2.AllReduceScalar(float64(c.Rank()), Sum)
		if err != nil || got != 0+2+4 {
			return fmt.Errorf("post-double-shrink allreduce: %v %v", got, err)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("episode 2 rank %d: %v", final[i], err)
		}
	}
}

// TestShrinkValidation: out-of-range ranks are rejected and a set containing
// this rank yields ErrExcluded.
func TestShrinkValidation(t *testing.T) {
	_, comms, _ := ftGroup(t, 3, time.Second)
	if _, err := comms[0].Shrink([]int{7}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := comms[1].Shrink([]int{1}); !errors.Is(err, ErrExcluded) {
		t.Errorf("self-exclusion returned %v, want ErrExcluded", err)
	}
}

// TestPendingEvictionCap is the regression for the parked-frame leak: past
// the cap the oldest frame is evicted (and counted), so a dead peer's
// stragglers can never grow the list without bound.
func TestPendingEvictionCap(t *testing.T) {
	_, comms, _ := ftGroup(t, 2, time.Second)
	c := comms[0]
	c.SetInstruments(NewInstruments(obsv.NewRegistry(), "G"))
	c.SetPendingCap(3)
	mkMsg := func(i int) transport.Message {
		p := make([]byte, hdrLen)
		putHdr(p, c.hdr(uint32(i), 0, opBarrier))
		return transport.Message{Src: transport.Proc("G", 1), Tag: opTags[opBarrier], Payload: p}
	}
	for i := 0; i < 7; i++ {
		c.park(mkMsg(i))
	}
	if got := c.PendingLen(); got != 3 {
		t.Fatalf("pending list length %d, want cap 3", got)
	}
	if got := c.ins.FailureCount(ctrPendingEvict); got != 4 {
		t.Errorf("eviction counter %d, want 4", got)
	}
	// Oldest evicted: the survivors are frames 4, 5, 6.
	for i, m := range c.pending {
		if seq := uint32(m.Payload[7])<<24 | uint32(m.Payload[6])<<16 | uint32(m.Payload[5])<<8 | uint32(m.Payload[4]); seq != uint32(4+i) {
			t.Errorf("pending[%d] has seq %d, want %d (oldest-first eviction)", i, seq, 4+i)
		}
	}
}

// TestPruneSuspectPending: parked current-epoch frames from a suspected rank
// are dropped; future-epoch frames survive for the successor group.
func TestPruneSuspectPending(t *testing.T) {
	_, comms, _ := ftGroup(t, 3, time.Second)
	c := comms[0]
	cur := make([]byte, hdrLen)
	putHdr(cur, c.hdr(1, 0, opBarrier))
	fut := make([]byte, hdrLen)
	putHdr(fut, hdr(1, 0, opBarrier)|uint64(c.epoch+1))
	c.park(transport.Message{Src: transport.Proc("G", 1), Tag: opTags[opBarrier], Payload: cur})
	c.park(transport.Message{Src: transport.Proc("G", 1), Tag: opTags[opBarrier], Payload: fut})
	c.park(transport.Message{Src: transport.Proc("G", 2), Tag: opTags[opBarrier], Payload: append([]byte(nil), cur...)})
	c.suspect(1)
	c.pruneSuspectPending()
	if got := c.PendingLen(); got != 2 {
		t.Fatalf("pending after prune = %d, want 2 (suspect's current-epoch frame dropped)", got)
	}
	for _, m := range c.pending {
		if m.Src.Rank == 1 && epochDelta(m.Payload, c.epoch) == 0 {
			t.Error("suspect's current-epoch frame survived the prune")
		}
	}
}

// TestDeadlineTimerHammer exercises the reused receive-deadline timer's
// re-arm pattern back-to-back: random consume/ignore/sleep interleavings must
// never leave the timer in a state where a fresh arm hangs or delivers an
// un-detectable stale fire. The documented invariant (see Comm.deadline) is
// that any fire observed with Since(armedAt) < timeout is spurious and the
// caller re-arms; this test drives that loop thousands of times.
func TestDeadlineTimerHammer(t *testing.T) {
	_, comms, _ := ftGroup(t, 1, time.Millisecond)
	c := comms[0]
	// Phase 1: chaotic arm/fire interleavings to pollute the channel.
	for i := 0; i < 300; i++ {
		ch := c.deadline()
		switch i % 4 {
		case 0:
			// Let the fire land in the buffer, then re-arm over it.
			time.Sleep(2 * time.Millisecond)
		case 1:
			<-ch // consume the genuine fire
		case 2:
			// Immediate re-arm, fire still pending.
		case 3:
			time.Sleep(500 * time.Microsecond) // race the fire
		}
	}
	// Phase 2: the receive-loop discipline must always terminate promptly
	// with a genuine (post-arm) expiry, stale fires notwithstanding.
	for i := 0; i < 200; i++ {
		ch := c.deadline()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-ch:
			case <-deadline:
				t.Fatalf("iteration %d: deadline timer never delivered a genuine fire", i)
			}
			if c.clk.Since(c.armedAt) >= c.timeout {
				break // genuine expiry
			}
			ch = c.deadline() // spurious: stale fire from an earlier arm
		}
	}
}

// TestAgreeCodecRoundTrip pins the agreement wire format.
func TestAgreeCodecRoundTrip(t *testing.T) {
	cases := []struct {
		phase, attempt, round int
		mask                  rankSet
	}{
		{phaseSweep, 0, 0, rankSet{0}},
		{phaseConfirm, 3, 2, rankSet{0b1010}},
		{phaseDecided, 65535, 1, rankSet{1<<63 | 7, 42}},
		{phaseSweep, 1, 65535, rankSet{}},
	}
	for i, tc := range cases {
		h := hdr(9, 0, opAgree) | 5 // epoch 5
		b := appendAgree(nil, h, tc.phase, tc.attempt, tc.round, tc.mask)
		if !matchHdr(b, h) {
			t.Fatalf("case %d: header mismatch", i)
		}
		phase, attempt, round, mask, err := decodeAgree(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if phase != tc.phase || attempt != tc.attempt || round != tc.round || !mask.equal(tc.mask) {
			t.Errorf("case %d: decoded (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				i, phase, attempt, round, mask, tc.phase, tc.attempt, tc.round, tc.mask)
		}
	}
	// Malformed frames are rejected, not panicked on.
	if _, _, _, _, err := decodeAgree([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
	lying := appendAgree(nil, hdr(1, 0, opAgree), phaseSweep, 0, 0, rankSet{1})
	lying[agreeBodyOff+5] = 200 // claim 200 mask words
	if _, _, _, _, err := decodeAgree(lying); err == nil {
		t.Error("lying word count accepted")
	}
	bad := appendAgree(nil, hdr(1, 0, opAgree), phaseSweep, 0, 0, rankSet{1})
	bad[agreeBodyOff] = 9 // invalid phase
	if _, _, _, _, err := decodeAgree(bad); err == nil {
		t.Error("invalid phase accepted")
	}
}

// FuzzAgreeCodec fuzzes the agreement/revocation frame decoder: arbitrary
// bytes must never panic, and every valid decode must re-encode to an
// equivalent frame (header bits the decoder doesn't cover excluded).
func FuzzAgreeCodec(f *testing.F) {
	f.Add(appendAgree(nil, hdr(1, 0, opAgree)|3, phaseSweep, 0, 0, rankSet{0b110}))
	f.Add(appendAgree(nil, hdr(9, 0, opAgree), phaseConfirm, 2, 1, rankSet{1 << 40, 5}))
	f.Add(appendAgree(nil, hdr(0, 0, opAgree)|255, phaseDecided, 65535, 65535, rankSet{}))
	f.Add([]byte{})
	f.Add(make([]byte, agreeMinLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The epoch classifier must tolerate anything.
		_ = epochDelta(b, 0)
		_ = epochDelta(b, 255)
		phase, attempt, round, mask, err := decodeAgree(b)
		if err != nil {
			return
		}
		if phase > phaseDecided || attempt > 65535 || round > 65535 {
			t.Fatalf("decode accepted out-of-range fields (%d,%d,%d)", phase, attempt, round)
		}
		var h uint64
		if len(b) >= hdrLen {
			for i := 0; i < hdrLen; i++ {
				h |= uint64(b[i]) << (8 * i)
			}
		}
		re := appendAgree(nil, h, phase, attempt, round, mask)
		p2, a2, r2, m2, err := decodeAgree(re)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if p2 != phase || a2 != attempt || r2 != round || !m2.equal(mask) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}

// TestShrunkSteadyStateZeroAlloc extends the zero-allocation regression to a
// post-recovery group: the epoch stamping, peer translation and failure
// bookkeeping on the hot path must not cost allocations, so a shrunk
// communicator's steady-state AllReduce allocates exactly like the original.
func TestShrunkSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const (
		base   = 5
		dead   = 2
		ranks  = base - 1
		vecLen = 1024
		iters  = 50
	)
	net := transport.NewMemNetwork()
	g := &allocGroup{
		net:     net,
		comms:   make([]*Comm, ranks),
		trigger: make([]chan struct{}, ranks),
		done:    make(chan error, ranks),
	}
	i := 0
	for r := 0; r < base; r++ {
		if r == dead {
			continue
		}
		ep, err := net.Register(transport.Proc("A", r))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(transport.NewDispatcher(ep), "A", r, base)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTimeout(30 * time.Second)
		// Every survivor shrinks with the identical agreed set; no agreement
		// round needed when the set is known (as after AgreeFailures).
		nc, err := c.Shrink([]int{dead})
		if err != nil {
			t.Fatal(err)
		}
		g.comms[i] = nc.force(RecursiveDoubling)
		g.trigger[i] = make(chan struct{})
		i++
	}
	vecs := make([][]float64, ranks)
	for r := range vecs {
		vecs[r] = make([]float64, vecLen)
	}
	for r := 0; r < ranks; r++ {
		c := g.comms[r]
		tr := g.trigger[r]
		vec := vecs[r]
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for range tr {
				g.done <- c.AllReduceInPlace(vec, Max)
			}
		}()
	}
	defer g.close()
	for i := 0; i < 16; i++ {
		g.round(t)
	}
	mallocs := measureAllocs(t, g, iters)
	t.Logf("shrunk comm: %d mallocs over %d ops", mallocs, iters*ranks)
	if mallocs > 10 {
		t.Fatalf("steady-state AllReduce on a shrunk comm allocated %d times over %d ops (want 0)",
			mallocs, iters*ranks)
	}
}

// TestFlightRecorderFTEvents: revoke, agree and shrink leave flt.* spans on
// each survivor's ring and the failure counters reach /statusz.
func TestFlightRecorderFTEvents(t *testing.T) {
	const n, dead = 3, 2
	_, comms, disps := ftGroup(t, n, time.Second)
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer(64, nil)
	for r := 0; r < n; r++ {
		comms[r].SetRing(tracer.Ring("G", r))
		comms[r].SetInstruments(NewInstruments(reg, "G"))
	}
	disps[dead].Close()
	errs := runRanks(comms, []int{0, 1}, func(c *Comm) error {
		c.Revoke()
		failed, err := c.AgreeFailures()
		if err != nil {
			return err
		}
		_, err = c.Shrink(failed)
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, r := range []int{0, 1} {
		want := map[string]bool{"flt.revoke": false, "flt.agree": false, "flt.shrink": false}
		for _, sp := range tracer.Ring("G", r).Spans() {
			if _, ok := want[sp.Name]; ok {
				want[sp.Name] = true
			}
		}
		for name, seen := range want {
			if !seen {
				t.Errorf("rank %d: no %s span on its ring", r, name)
			}
		}
	}
	ins := comms[0].Instruments()
	for ctr, name := range map[int]string{ctrRevokes: "revokes", ctrAgreed: "agreed", ctrShrinks: "shrinks"} {
		if ins.FailureCount(ctr) == 0 {
			t.Errorf("failure counter %s never incremented", name)
		}
	}
}

// TestAgreeDrainsParkedSweeps reproduces the sweep-before-revoke race: a
// peer that detects the failure first floods its agreement sweep, and the
// sweep reaches a rank still blocked inside the interrupted data operation
// — ahead of the revocation that unblocks it — so the data receive loop
// parks it. The rank's own AgreeFailures must absorb that parked answer
// instead of waiting a deadline for it, or its peers will agree the silent
// live rank out of the group (the seed-8 kill-a-rank chaos failure).
func TestAgreeDrainsParkedSweeps(t *testing.T) {
	const timeout = 30 * time.Second // generous: success must not need it
	_, comms, _ := ftGroup(t, 2, timeout)
	a, b := comms[0], comms[1]

	ready := make(chan struct{})
	blocked := make(chan error, 1)
	go func() {
		close(ready)
		blocked <- b.Barrier() // parks the sweep, then fails on the revoke
	}()
	<-ready
	time.Sleep(50 * time.Millisecond) // let rank 1 block in the barrier

	// Rank 0's agreement sweep for episode 0, then its revocation. Per-pair
	// FIFO guarantees rank 1 parks the sweep before the revoke unblocks it.
	sweep := appendAgree(nil, a.hdr(0, 0, opAgree), phaseSweep, 0, 0, newRankSet(2))
	a.sendCtl(1, tagAgree, sweep)
	a.markRevoked() // flag only: keep rank 0's flood out of the picture
	rev := make([]byte, hdrLen)
	putHdr(rev, a.hdr(0, 0, opRevoke))
	a.sendCtl(1, tagRevoke, rev)

	if err := <-blocked; !errors.Is(err, ErrRevoked) {
		t.Fatalf("barrier returned %v, want ErrRevoked", err)
	}
	start := time.Now()
	failed, err := b.AgreeFailures()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("AgreeFailures: %v", err)
	}
	if len(failed) != 0 {
		t.Fatalf("agreed failed set %v, want empty (rank 0 answered via the parked sweep)", failed)
	}
	if elapsed > timeout/2 {
		t.Fatalf("agreement took %v: the parked sweep was not drained (deadline %v)", elapsed, timeout)
	}
}
