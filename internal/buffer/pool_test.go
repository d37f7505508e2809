package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/match"
)

// TestPoolAlternatingSizesHit is the regression test for the freelist bug
// this pool replaces: the old ad-hoc freelist popped candidates and silently
// dropped every one whose length didn't match the request, so alternating
// two block sizes never reused a buffer. With size classes, both sizes keep
// hitting after the first round.
func TestPoolAlternatingSizesHit(t *testing.T) {
	p := NewPool(0)
	sizes := []int{100, 257}
	var held [][]float64
	for round := 0; round < 8; round++ {
		for _, n := range sizes {
			held = append(held, p.Get(n))
		}
		for _, buf := range held {
			p.Put(buf)
		}
		held = held[:0]
	}
	st := p.Stats()
	// Round 1 misses once per size; every later Get must hit.
	wantHits := (8 - 1) * len(sizes)
	if st.Misses != len(sizes) || st.Hits != wantHits {
		t.Fatalf("alternating sizes: hits=%d misses=%d, want hits=%d misses=%d (stats %+v)",
			st.Hits, st.Misses, wantHits, len(sizes), st)
	}
	if st.Discards != 0 {
		t.Fatalf("alternating sizes discarded %d buffers with depth %d", st.Discards, DefaultPoolDepth)
	}
}

// TestManagerAlternatingSizesReusePool drives the same scenario through the
// Manager: buffer-then-evict cycles alternating two region sizes must reuse
// pooled buffers instead of allocating fresh ones each cycle.
func TestManagerAlternatingSizesReusePool(t *testing.T) {
	m, err := NewManager(Config{Policy: match.REG, Tol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts := 0.0
	sizes := []int{64, 200}
	const rounds = 6
	for round := 0; round < rounds; round++ {
		for _, n := range sizes {
			ts++
			// No requests registered: every export is beyond all known
			// regions and must be buffered.
			res, err := m.Offer(ts, make([]float64, n))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Buffered {
				t.Fatalf("export D@%g not buffered", ts)
			}
		}
		if got := m.Evict(); got != len(sizes) {
			t.Fatalf("Evict freed %d entries, want %d", got, len(sizes))
		}
	}
	st := m.Stats()
	wantHits := (rounds - 1) * len(sizes)
	if st.Pool.Hits != wantHits || st.Pool.Misses != len(sizes) {
		t.Fatalf("manager pool reuse: hits=%d misses=%d, want hits=%d misses=%d",
			st.Pool.Hits, st.Pool.Misses, wantHits, len(sizes))
	}
	if m.BufferedBytes() != 0 {
		t.Fatalf("BufferedBytes=%d after full eviction, want 0", m.BufferedBytes())
	}
}

// TestTransferDoneRecyclesSentBuffers checks the alias lifecycle of matched
// entries: a sent buffer is aliased by its SendItem and must go to the
// garbage collector if freed in that state, but once the consumer calls
// TransferDone (the framework does so after copying the data to the wire),
// freeing the entry recycles the buffer through the pool.
func TestTransferDoneRecyclesSentBuffers(t *testing.T) {
	run := func(ack bool) PoolStats {
		m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5})
		if err != nil {
			t.Fatal(err)
		}
		ts := 0.0
		for i := 0; i < 6; i++ {
			res, err := m.Offer(ts+0.5, make([]float64, 64))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Buffered {
				t.Fatalf("export D@%g not buffered", ts+0.5)
			}
			// The request decides immediately: the previous export is the
			// REGL match and is handed out as a SendItem.
			rr, err := m.OnRequest(ts + 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && len(rr.Sends) != 1 {
				t.Fatalf("cycle %d: %d sends, want 1", i, len(rr.Sends))
			}
			if ack {
				for _, s := range rr.Sends {
					m.TransferDone(s.MatchTS)
				}
			}
			ts++
		}
		return m.Stats().Pool
	}
	acked := run(true)
	if acked.Puts == 0 || acked.Hits == 0 {
		t.Fatalf("acked transfers never recycled: %+v", acked)
	}
	unacked := run(false)
	if unacked.Puts != 0 {
		t.Fatalf("sent buffers recycled while still aliased: %+v", unacked)
	}
	// TransferDone for an unknown or never-sent timestamp is a no-op.
	m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	m.TransferDone(42)
	if _, err := m.Offer(1, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	m.TransferDone(1)
	if m.Evict() != 1 {
		t.Fatal("entry not evicted")
	}
	if st := m.Stats().Pool; st.Puts != 1 {
		t.Fatalf("never-sent buffer not recycled after spurious TransferDone: %+v", st)
	}
}

// TestPoolBounds checks the pool's memory bounds: class depth caps retention
// and foreign-capacity buffers are discarded rather than polluting a class.
func TestPoolBounds(t *testing.T) {
	p := NewPool(2)
	for i := 0; i < 4; i++ {
		p.Put(make([]float64, 8))
	}
	if got := p.Free(); got != 2 {
		t.Fatalf("pool holds %d buffers, want depth bound 2", got)
	}
	if st := p.Stats(); st.Discards != 2 {
		t.Fatalf("discards=%d, want 2", st.Discards)
	}
	// cap 12 is not a power of two: must not enter class 4 (cap 16).
	p.Put(make([]float64, 10, 12))
	if st := p.Stats(); st.Discards != 3 {
		t.Fatalf("foreign-capacity buffer not discarded: %+v", st)
	}
	// Zero-length and nil puts are no-ops.
	p.Put(nil)
	if st := p.Stats(); st.Puts != 5 {
		t.Fatalf("puts=%d, want 5 (nil put not counted)", st.Puts)
	}
	// Oversized requests fall through to the allocator.
	var nilPool *Pool
	if got := len(nilPool.Get(3)); got != 3 {
		t.Fatalf("nil pool Get(3) length %d", got)
	}
	if got := len(p.Get(0)); got != 0 {
		t.Fatalf("Get(0) length %d", got)
	}
}

// TestPoolRefusesDoubleFree: with no option set, a second Put of the same
// buffer is refused and recorded, so the next two Gets of its class hand out
// different backing arrays instead of one array twice.
func TestPoolRefusesDoubleFree(t *testing.T) {
	p := NewPool(0)
	buf := p.Get(8)
	p.Put(buf)
	p.Put(buf)
	if v := p.Violations(); len(v) != 1 {
		t.Fatalf("violations = %q, want exactly one", v)
	}
	a, b := p.Get(8), p.Get(8)
	if &a[0] == &b[0] {
		t.Fatal("two Gets returned the same backing array")
	}
}

// TestQuickByteAccountingWithPool is the property test that Manager byte
// accounting stays exact across store/evict/sweep with pooled buffers of
// varying sizes. Unlike TestQuickManagerInvariants (fixed-size objects) it
// exports random sizes, shares one pool across two managers, and evicts.
func TestQuickByteAccountingWithPool(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pool := NewPool(8)
		mgrs := make([]*Manager, 2)
		for i := range mgrs {
			m, err := NewManager(Config{Policy: match.Policy(r.Intn(3)), Tol: r.Float64() * 4, Pool: pool})
			if err != nil {
				return false
			}
			mgrs[i] = m
		}
		type key struct{ mgr, ts int }
		sizeOf := make(map[key]int)
		exportTS := make([]int, len(mgrs))
		requestTS := make([]float64, len(mgrs))
		for step := 0; step < 80; step++ {
			i := r.Intn(len(mgrs))
			m := mgrs[i]
			switch r.Intn(5) {
			case 0, 1, 2: // export a random-size object
				exportTS[i]++
				n := 1 + r.Intn(300)
				sizeOf[key{i, exportTS[i]}] = n
				if _, err := m.Offer(float64(exportTS[i]), make([]float64, n)); err != nil {
					return false
				}
			case 3: // request (increasing)
				requestTS[i] += 0.5 + r.Float64()*4
				if _, err := m.OnRequest(requestTS[i]); err != nil {
					return false
				}
			case 4: // evict everything (dead-importer path)
				m.Evict()
			}
			// Invariant: bytes equals the sum over live entries of 8*len.
			for j, mj := range mgrs {
				var want int64
				live := 0
				for ts := 1; ts <= exportTS[j]; ts++ {
					if mj.Buffered(float64(ts)) {
						live++
						want += int64(8 * sizeOf[key{j, ts}])
					}
				}
				if mj.NumBuffered() != live || mj.BufferedBytes() != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStoreSteadyStateZeroAlloc drives one connection's export pipeline at
// steady state: a batch of offers the manager must buffer, then one request
// just below the newest export, which decides inside OnRequest, matches the
// export before it and retires everything older; TransferDone releases the
// matched alias the way the framework does once the data is on the wire.
// After warm-up every copy target comes from the pool and every Entry from
// the freelist: Offer — the memcpy Figure 4 measures — performs no heap
// allocation and no pool miss. The request half models the importer side of
// the protocol, not the export hot path, and runs outside the measured func.
func TestStoreSteadyStateZeroAlloc(t *testing.T) {
	const batch = 32 // AllocsPerRun calls offer batch+1 times; under DefaultPoolDepth
	data := make([]float64, 4096)
	m, err := NewManager(Config{Policy: match.REGL, Tol: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	ts := 0.0
	offer := func() {
		res, err := m.Offer(ts+0.5, data)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Buffered {
			t.Fatal("expected buffering")
		}
		ts++
	}
	request := func() {
		rr, err := m.OnRequest(ts - 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range rr.Sends {
			m.TransferDone(s.MatchTS)
		}
	}
	for w := 0; w < 3; w++ {
		for i := 0; i <= batch; i++ {
			offer()
		}
		request()
	}
	before := m.Stats().Pool
	for w := 0; w < 4; w++ {
		// The matcher's export history grows by doubling, an allocation
		// every few batches; AllocsPerRun's integer average drops it.
		if avg := testing.AllocsPerRun(batch, offer); avg != 0 {
			t.Errorf("steady-state Offer allocates %v times per export, want 0", avg)
		}
		request()
	}
	if misses := m.Stats().Pool.Misses - before.Misses; misses != 0 {
		t.Errorf("steady state took %d pool misses over %d exports", misses, 4*(batch+1))
	}
}
