package collective

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obsv"
)

// opAlgoPairs enumerates every (operation, algorithm) combination the engine
// can execute, i.e. the full instrument catalog.
var opAlgoPairs = []struct {
	op   opID
	algo Algo
}{
	{opBarrier, Dissemination},
	{opBcast, Binomial},
	{opBcast, BinomialSeg},
	{opReduce, Binomial},
	{opAllReduce, RecursiveDoubling},
	{opAllReduce, Ring},
	{opGather, Linear},
	{opScatter, Linear},
	{opAllGather, Linear},
	{opAllGather, Ring},
	{opAllToAll, Linear},
	{opAllToAll, Pairwise},
	{opScan, RecursiveDoubling},
	{opReduceScatter, Composed},
	{opReduceScatter, Ring},
}

// Instruments holds the per-operation, per-algorithm latency histograms
// (instrument names "collective.<op>.<algo>.ns", labeled by program). A nil
// *Instruments is a no-op, so uninstrumented Comms pay one nil check.
type Instruments struct {
	hist [numOps][numAlgos]*obsv.Histogram

	// Fault-tolerance counters ("collective.failures.<name>"): the suspect →
	// agree → revoke → shrink pipeline plus the pending-list hygiene
	// counters (evictions past the cap, stale-epoch frame drops).
	failures [numFailureCtrs]*obsv.Counter

	// Wire-buffer pool ("collective.pool.{hits,misses,bytes}"): sends the
	// pools served, sends that allocated, bytes parked now (all Comms).
	poolHits, poolMisses *obsv.Counter
	poolBytes            *obsv.Gauge
}

// Failure-counter indices (names in failureCtrNames).
const (
	ctrSuspected = iota
	ctrAgreed
	ctrRevokes
	ctrShrinks
	ctrPendingEvict
	ctrStaleDropped

	numFailureCtrs
)

var failureCtrNames = [numFailureCtrs]string{
	"suspected", "agreed", "revokes", "shrinks", "pending_evicted", "stale_dropped",
}

// incFailure bumps one fault-tolerance counter (nil-safe: uninstrumented
// Comms pay a nil check).
func (ins *Instruments) incFailure(ctr int) {
	if ins == nil {
		return
	}
	ins.failures[ctr].Inc()
}

// pooled counts wire-buffer requests the pool served (hit) and ones that
// allocated (miss), and moves the parked-bytes gauge.
func (ins *Instruments) pooled(hit, miss uint64, bytes int) {
	if ins != nil {
		ins.poolHits.Add(hit)
		ins.poolMisses.Add(miss)
		ins.poolBytes.Add(int64(bytes))
	}
}

// FailureCount returns one fault-tolerance counter's value.
func (ins *Instruments) FailureCount(ctr int) uint64 {
	if ins == nil {
		return 0
	}
	return ins.failures[ctr].Load()
}

// NewInstruments registers (or looks up) the collective instrument catalog
// for one program in reg. A nil registry yields inert instruments.
func NewInstruments(reg *obsv.Registry, program string) *Instruments {
	ins := &Instruments{}
	for _, p := range opAlgoPairs {
		name := "collective." + opTags[p.op] + "." + p.algo.String() + ".ns"
		ins.hist[p.op][p.algo] = reg.Histogram(name, obsv.L("program", program))
	}
	for i, name := range failureCtrNames {
		ins.failures[i] = reg.Counter("collective.failures."+name, obsv.L("program", program))
	}
	ins.poolHits = reg.Counter("collective.pool.hits", obsv.L("program", program))
	ins.poolMisses = reg.Counter("collective.pool.misses", obsv.L("program", program))
	ins.poolBytes = reg.Gauge("collective.pool.bytes", obsv.L("program", program))
	return ins
}

func (ins *Instruments) observe(op opID, algo Algo, ns int64) {
	if ins == nil {
		return
	}
	ins.hist[op][algo].Observe(ns)
}

// WriteStatus renders one line per (op, algo) pair that has observations —
// count, mean and p50/p95/p99 latency — for the /statusz collectives
// section, followed by the nonzero failure counters.
func (ins *Instruments) WriteStatus(w io.Writer) {
	if ins == nil {
		return
	}
	for _, p := range opAlgoPairs {
		h := ins.hist[p.op][p.algo]
		n := h.Count()
		if n == 0 {
			continue
		}
		mean := time.Duration(h.Sum() / int64(n))
		fmt.Fprintf(w, "    %s.%s: n=%d mean=%v p50=%v p95=%v p99=%v\n", opTags[p.op], p.algo, n, mean,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)), time.Duration(h.Quantile(0.99)))
	}
	line := ""
	for i, name := range failureCtrNames {
		if v := ins.failures[i].Load(); v != 0 {
			line += fmt.Sprintf(" %s=%d", name, v)
		}
	}
	if line != "" {
		fmt.Fprintf(w, "    failures:%s\n", line)
	}
}
