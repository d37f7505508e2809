package buffer

import (
	"fmt"
	"math/bits"
	"sync"
)

// poolClasses is the number of power-of-two size classes a Pool maintains.
// Class c holds slices with capacity exactly 1<<c, so the largest pooled
// buffer is 1<<(poolClasses-1) float64s (= 2 GiB of payload) — far beyond
// any block this framework moves; larger requests fall through to the
// allocator.
const poolClasses = 28

// DefaultPoolDepth is the per-class retention bound of a Pool when the
// depth passed to NewPool is zero: how many free slices of one size class
// are kept before Put starts discarding to the garbage collector.
const DefaultPoolDepth = 64

// PoolStats counts a Pool's traffic. Hits/Misses split Get calls by whether
// a pooled slice was reused; Discards counts slices dropped by Put because
// their class was full (bounded memory) or their capacity was not poolable.
type PoolStats struct {
	Hits, Misses, Puts, Discards int
}

// Pool recycles []float64 buffers in power-of-two size classes. It replaces
// the manager's former ad-hoc freelist, which popped candidates and silently
// dropped every one whose length didn't match the request — after any
// region-size change reuse stopped and the retained capacity leaked. A Pool
// serves any mix of sizes: Get rounds the request up to the next power of
// two and reslices, so alternating block sizes keep hitting.
//
// A Pool is safe for concurrent use: the framework shares one pool among a
// process's per-connection export pipelines, whose managers run under
// independent per-connection locks.
type Pool struct {
	mu      sync.Mutex
	depth   int
	classes [poolClasses][][]float64
	stats   PoolStats

	// violations records every Put the pool refused because the backing
	// array was already on its class's freelist (a double free).
	violations []string
}

// Violations returns the ownership violations recorded so far (nil when
// none).
func (p *Pool) Violations() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.violations...)
}

// key identifies buf's backing array while it has capacity.
func poolKey(buf []float64) *float64 { return &buf[:1][0] }

// NewPool returns a pool keeping at most depth free slices per size class
// (depth <= 0 means DefaultPoolDepth).
func NewPool(depth int) *Pool {
	if depth <= 0 {
		depth = DefaultPoolDepth
	}
	return &Pool{depth: depth}
}

// classOf returns the size class whose slices have capacity >= n, or -1 when
// n is not poolable.
func classOf(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c >= poolClasses {
		return -1
	}
	return c
}

// Get returns a slice of length n, reusing a pooled buffer of n's size class
// when one is free. The contents are unspecified — callers overwrite (the
// manager copies the export into it immediately).
func (p *Pool) Get(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := classOf(n)
	if c < 0 {
		p.stats.Misses++
		return make([]float64, n)
	}
	if free := p.classes[c]; len(free) > 0 {
		buf := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.stats.Hits++
		return buf[:n]
	}
	p.stats.Misses++
	// Allocate the class's full capacity so the buffer re-enters the same
	// class on Put whatever length it was used at.
	return make([]float64, n, 1<<c)
}

// Put returns a buffer to its size class. Buffers whose capacity is not an
// exact class size (allocated elsewhere) and buffers beyond the class depth
// are discarded to the garbage collector, bounding pool memory. A buffer
// whose backing array is already on the freelist is a double free: Put
// refuses it and records a violation, so two later Gets never share an
// array. The check scans at most depth pointers under the lock Put holds
// anyway.
func (p *Pool) Put(buf []float64) {
	if p == nil || cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	c := classOf(cap(buf))
	if c < 0 || cap(buf) != 1<<c {
		p.stats.Discards++
		return
	}
	k := poolKey(buf)
	for _, free := range p.classes[c] {
		if poolKey(free) == k {
			p.violations = append(p.violations,
				fmt.Sprintf("buffer: Put of a buffer (cap %d) already in the pool (double free)", cap(buf)))
			return
		}
	}
	if len(p.classes[c]) >= p.depth {
		p.stats.Discards++
		return
	}
	p.classes[c] = append(p.classes[c], buf[:0])
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Free returns the number of pooled slices currently held across all
// classes (tests and diagnostics).
func (p *Pool) Free() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, free := range p.classes {
		n += len(free)
	}
	return n
}
