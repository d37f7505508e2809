package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named set of inputs. Steps are exports for the coupled
// workloads and loop iterations for collective_mix.
type workload struct {
	name, why string
	steps     int // per epoch
	// epochs is the fixed number of timed epochs of an untraced run of
	// runSeconds: both sides of a comparison pool the same number of samples.
	epochs int

	// Coupled workloads.
	shape     *couplingShape
	every     int           // one import request per this many exports
	fastSleep time.Duration // simulated computation of F's processes other than p_s
	slowSleep time.Duration // simulated computation of p_s
	uSleep    time.Duration // simulated computation of one request cycle of U
	lead      int           // >0: exporters stay at most this many steps ahead of completed imports
	// The regime of a Figure-4 workload, as bounds on p_s's copies per
	// export (0 = unbounded): a run outside it measures something else and
	// is reported incorrect.
	memcpyAtLeast, memcpyAtMost float64

	// collective_mix.
	ranks int
}

var workloads = []*workload{
	{
		name:  "fig4_buffered",
		why:   "Figure 4(a): importer slower than exporter, every export of p_s is memcpy'd; buffer and the allocator do the work, Import finds its version buffered",
		steps: 1001, epochs: 6, every: 20,
		shape:     &couplingShape{grid: 256, fRows: 2, fCols: 2, uProcs: 4, tol: 2.5},
		fastSleep: 200 * time.Microsecond, slowSleep: time.Millisecond, uSleep: 75 * time.Millisecond,
		memcpyAtLeast: 0.95,
	},
	{
		name:  "fig4_buddy",
		why:   "Figure 4(d): importer far ahead of p_s, buddy-help lets p_s skip ~95% of its copies; rep, match and small control hops do the work, Import is pinned by p_s",
		steps: 1001, epochs: 18, every: 20,
		shape:     &couplingShape{grid: 256, fRows: 2, fCols: 2, uProcs: 8, tol: 2.5},
		fastSleep: 200 * time.Microsecond, slowSleep: time.Millisecond, uSleep: 9400 * time.Microsecond,
		memcpyAtMost: 0.10,
	},
	{
		name:  "stream_tcp",
		why:   "closed loop over loopback TCP, 1 MiB per rank per step, every version matched and moved, 4 steps in flight; wire, transport and decomp carry the step",
		steps: 400, epochs: 16, every: 1, lead: 4,
		shape: &couplingShape{grid: 512, fRows: 2, fCols: 1, uProcs: 2, tol: 0.5, tcp: true},
	},
	{
		name:  "collective_mix",
		why:   "collectives over Dispatcher over MemNetwork on 4 ranks, no core: four small ops and a barrier per step, a 1 MiB AllReduce every 8th; the coupling layers are idle",
		steps: 2500, epochs: 13, ranks: 4,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params are the knobs of one run that are not part of a workload.
type params struct {
	seed int64
	// scale divides steps per epoch and set-up cycles; the benchmark's own
	// test uses it for tiny epochs. 1 in every measured run.
	scale int
	// corruptEvery, when positive, corrupts every n-th result before it is
	// checked: fault injection by which the benchmark's own test shows that
	// the check trips. No flag sets it.
	corruptEvery int
}

func (p params) stepsOf(w *workload) int {
	steps := w.steps / max(p.scale, 1)
	if w.every > 0 {
		steps = max(steps/w.every, 2)*w.every + 1 // whole request cycles plus the export that decides the last
	}
	return max(steps, 8)
}

// epoch is one timed run of a fixture: what goes in and what is measured.
type epoch struct {
	steps        int
	seed         int64
	corruptEvery int
	tr           *tracer // nil in the untraced pass

	before, after usage

	// call holds the designated process's per-step call times and bulk the
	// times of the call that moves bulk data (every importer rank's
	// Process.Import on the coupled workloads, rank 0's 1 MiB AllReduce on
	// collective_mix), in nanoseconds.
	call, bulk []int64
	// ops holds named latency samples taken only in the traced pass.
	ops map[string][]int64
	// layer holds per-layer values read after the epoch.
	layer map[string]float64

	attempted, failed atomic.Int64
	checks            atomic.Int64
	maxLead           int

	mu   sync.Mutex
	errs []error
	stop func() // aborts the fixture's blocked calls after the first error
}

// fail records a call that returned an error; the epoch's remaining calls
// are abandoned, because a collective sequence cannot continue past one.
func (ep *epoch) fail(err error) {
	ep.failed.Add(1)
	ep.mu.Lock()
	first := len(ep.errs) == 0
	ep.errs = append(ep.errs, err)
	ep.mu.Unlock()
	if first && ep.stop != nil {
		ep.stop()
	}
}

// corrupt counts one result about to be verified and says whether fault
// injection should spoil it first.
func (ep *epoch) corrupt() bool {
	n := ep.checks.Add(1)
	return ep.corruptEvery > 0 && n%int64(ep.corruptEvery) == 0
}

func (ep *epoch) addOps(name string, ns []int64) {
	ep.mu.Lock()
	ep.ops[name] = append(ep.ops[name], ns...)
	ep.mu.Unlock()
}

// fixture is one freshly built instance of the program under a workload.
type fixture interface {
	// procs prepares the epoch's inputs and returns one function per
	// goroutine "process"; runEpoch starts them together.
	procs(ep *epoch) []func()
	// collect reads per-layer values from public accessors after the epoch.
	collect(ep *epoch)
	close()
}

func (w *workload) newFixture(tr *tracer) (fixture, error) {
	if w.shape == nil {
		g, err := newCollGroup(w.ranks, tr)
		if err != nil {
			return nil, err
		}
		return &collFixture{w: w, g: g}, nil
	}
	c, err := newCoupling(*w.shape, tr)
	if err != nil {
		return nil, err
	}
	return &coupledFixture{w: w, c: c}, nil
}

// runEpoch releases every process of the fixture from one barrier and waits
// for all of them; the usage readings bracket exactly that interval.
func runEpoch(fx fixture, ep *epoch) {
	procs := fx.procs(ep)
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(len(procs))
	done.Add(len(procs))
	for _, p := range procs {
		go func(p func()) {
			defer done.Done()
			ready.Done()
			<-start
			p()
		}(p)
	}
	ready.Wait()
	ep.before = readUsage()
	close(start)
	done.Wait()
	ep.after = readUsage()
	fx.collect(ep)
}

// pace simulates a computation phase by sleeping: a busy-wait would take the
// two cores from the framework's own goroutines.
func pace(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// ---------------------------------------------------------------------------
// coupled workloads

type coupledFixture struct {
	w *workload
	c *coupling

	// Per-epoch state, filled by procs and reduced by collect.
	requests int
	waits    [][]int64 // per importer rank, per request
	win      *window
	peak     int64 // p_s's largest buffered byte count (traced pass)
}

func (cf *coupledFixture) close() { cf.c.close() }

// fieldValue is the seeded content of the exported field at a global
// position: a small integer, so that sums of it are exact in float64.
func fieldValue(seed int64, row, col int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(row)*0xBF58476D1CE4E5B9 + uint64(col)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return float64(h % 1024)
}

// plan is the epoch's generated input: timestamps, and which version every
// request must match according to the benchmark's own naive REGL reference.
type plan struct {
	exportTS  []float64 // exportTS[k-1] is the timestamp of export k
	requestTS []float64
	wantK     []int // the export number request j must deliver
}

func (cf *coupledFixture) plan(ep *epoch) plan {
	rng := rand.New(rand.NewSource(ep.seed))
	phaseE := float64(rng.Intn(16)) / 16
	phaseR := float64(rng.Intn(16)) / 16
	if cf.w.every == 1 {
		phaseR = phaseE // a request for exactly every export
	}
	var p plan
	for k := 1; k <= ep.steps; k++ {
		p.exportTS = append(p.exportTS, float64(k)+phaseE)
	}
	for j := 1; j <= (ep.steps-1)/cf.w.every; j++ {
		x := float64(j*cf.w.every) + phaseR
		p.requestTS = append(p.requestTS, x)
		// REGL: the largest export timestamp in [x-tol, x].
		want := 0
		for k, ts := range p.exportTS {
			if ts >= x-cf.w.shape.tol && ts <= x {
				want = k + 1
			}
		}
		p.wantK = append(p.wantK, want)
	}
	return p
}

// window keeps stream_tcp's exporters at most lead steps ahead of the
// imports every importer rank has completed: the loop is closed and the
// program's memory bounded.
type window struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lead    int
	done    []int // completed imports per importer rank
	min     int
	maxSeen int
	aborted bool
}

func newWindow(lead, importers int) *window {
	w := &window{lead: lead, done: make([]int, importers)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until export k is within the window; false after abort.
func (w *window) acquire(k int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k-w.min > w.lead && !w.aborted {
		w.cond.Wait()
	}
	w.maxSeen = max(w.maxSeen, k-w.min)
	return !w.aborted
}

func (w *window) completed(rank, j int) {
	w.mu.Lock()
	w.done[rank] = j
	lowest := j
	for _, d := range w.done {
		lowest = min(lowest, d)
	}
	if lowest != w.min {
		w.min = lowest
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

func (w *window) abort() {
	w.mu.Lock()
	w.aborted = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (cf *coupledFixture) procs(ep *epoch) []func() {
	shape, c := cf.w.shape, cf.c
	pl := cf.plan(ep)
	ps := shape.fProcs() - 1
	cf.requests = len(pl.requestTS)
	cf.waits = make([][]int64, shape.uProcs)
	if cf.w.lead > 0 {
		cf.win = newWindow(cf.w.lead, shape.uProcs)
	}
	ep.stop = func() {
		if cf.win != nil {
			cf.win.abort()
		}
		c.close()
	}
	// The version number is stamped into the first column of every exporter
	// block, so an imported block names the version it holds.
	stampCols := make([]int, shape.fCols)
	for i := range stampCols {
		stampCols[i] = i * shape.grid / shape.fCols
	}
	var out []func()

	for r := 0; r < shape.fProcs(); r++ {
		r := r
		blk, err := c.exportBlock(r)
		if err != nil {
			ep.fail(err)
			return nil
		}
		cols := blk.c1 - blk.c0
		data := make([]float64, blk.area())
		for i := range data {
			data[i] = fieldValue(ep.seed, blk.r0+i/cols, blk.c0+i%cols)
		}
		sleep := cf.w.fastSleep
		if r == ps {
			sleep = cf.w.slowSleep
			ep.call = make([]int64, 0, ep.steps)
		}
		who := fmt.Sprintf("F:%d", r)
		out = append(out, func() {
			for k := 1; k <= ep.steps; k++ {
				stepStart := nowNS()
				for i := 0; i < len(data); i += cols {
					data[i] = float64(k)
				}
				pace(sleep)
				if cf.win != nil && !cf.win.acquire(k) {
					return
				}
				t0 := nowNS()
				err := c.export(r, pl.exportTS[k-1], data)
				t1 := nowNS()
				ep.attempted.Add(1)
				if err != nil {
					ep.fail(fmt.Errorf("%s export %d: %w", who, k, err))
					return
				}
				if r == ps {
					ep.call = append(ep.call, t1-t0)
				}
				if ep.tr != nil {
					ep.tr.call("core.Export", who, k, t0, t1)
					if r == ps {
						ep.tr.call(spanStep, who, k, stepStart, t1)
						cf.peak = max(cf.peak, c.bufferedBytes(r))
					}
				}
			}
			if err := c.flush(r); err != nil {
				ep.fail(fmt.Errorf("%s flush: %w", who, err))
			}
		})
	}

	for r := 0; r < shape.uProcs; r++ {
		r := r
		blk, err := c.importBlock(r)
		if err != nil {
			ep.fail(err)
			return nil
		}
		cols := blk.c1 - blk.c0
		var stampAt []int // offsets of the stamped cells within one row of this block
		for _, sc := range stampCols {
			if sc >= blk.c0 && sc < blk.c1 {
				stampAt = append(stampAt, sc-blk.c0)
			}
		}
		isStamp := make([]bool, cols)
		for _, at := range stampAt {
			isStamp[at] = true
		}
		var baseSum float64
		for i := 0; i < blk.area(); i++ {
			if !isStamp[i%cols] {
				baseSum += fieldValue(ep.seed, blk.r0+i/cols, blk.c0+i%cols)
			}
		}
		stamps := float64((blk.r1 - blk.r0) * len(stampAt))
		dst := make([]float64, blk.area())
		cf.waits[r] = make([]int64, 0, cf.requests)
		who := fmt.Sprintf("U:%d", r)
		out = append(out, func() {
			for j := 1; j <= cf.requests; j++ {
				t0 := nowNS()
				matched, matchTS, err := c.importInto(r, pl.requestTS[j-1], dst)
				t1 := nowNS()
				ep.attempted.Add(1)
				if err != nil {
					ep.fail(fmt.Errorf("%s import %d: %w", who, j, err))
					return
				}
				cf.waits[r] = append(cf.waits[r], t1-t0)
				ep.tr.call("core.Import", who, j, t0, t1)
				if ep.corrupt() {
					dst[len(dst)/2]++
				}
				// The imported block must be the version the reference
				// names: its timestamp, that version's stamp in every
				// stamped cell, and the exact sum of the seeded field.
				k := pl.wantK[j-1]
				ok := matched && k > 0 && matchTS == pl.exportTS[k-1]
				if ok {
					var sum float64
					for _, v := range dst {
						sum += v
					}
					ok = sum == baseSum+stamps*float64(k)
					for i := 0; ok && i < len(dst); i += cols {
						for _, at := range stampAt {
							ok = ok && dst[i+at] == float64(k)
						}
					}
				}
				if !ok {
					ep.failed.Add(1)
				}
				if cf.win != nil {
					cf.win.completed(r, j)
				}
				pace(cf.w.uSleep)
			}
		})
	}
	return out
}

func (cf *coupledFixture) collect(ep *epoch) {
	for _, ws := range cf.waits {
		ep.bulk = append(ep.bulk, ws...)
	}
	if cf.win != nil {
		ep.maxLead = cf.win.maxSeen
	}

	cnt := cf.c.counters()
	inst := func(name string) float64 {
		if v, ok := cnt[name]; ok {
			return v
		}
		return absent
	}
	// per divides an instrument's value, keeping absent absent.
	per := func(name string, by float64) float64 {
		if v := inst(name); v != absent && by > 0 {
			return v / by
		}
		return absent
	}
	steps, reqs := float64(ep.steps), float64(cf.requests)
	l := ep.layer
	l["core.export.calls"] = steps * float64(cf.w.shape.fProcs())
	l["core.export.stall_ns"] = inst("core.export.stall.ns")
	l["core.pipeline.jobs"] = inst("core.pipeline.jobs")
	l["core.pipeline.peak_depth"] = inst("core.pipeline.peak.depth")
	l["core.data_sends_per_step"] = per("core.data.sends", steps)
	l["core.import.calls"] = inst("core.import.calls")
	l["core.ctl.forwarded_per_req"] = per("core.requests.forwarded", reqs)
	l["core.ctl.responses_per_req"] = per("core.responses", reqs)
	l["core.ctl.buddy_msgs_per_req"] = per("core.buddy.messages", reqs)
	l["core.data_dropped"] = inst("core.data.dropped")
	l["buffer.copies"] = inst("core.export.copies")
	l["buffer.skips"] = inst("core.export.skips")
	if hits, misses := inst("buffer.pool.reuse"), inst("buffer.pool.misses"); hits != absent && misses != absent && hits+misses > 0 {
		l["buffer.pool.hit_frac"] = hits / (hits + misses)
	}
	l["transport.tcp.decode_errors"] = inst("transport.decode_errors")
	l["transport.tcp.reconnects"] = inst("transport.reconnects")
	if ep.tr != nil {
		l["buffer.peak_buffered_mb"] = float64(cf.peak) / (1 << 20)
	}

	// Only p_s's own share of the copies has no instrument of its own.
	st, err := cf.c.exporterStats(cf.w.shape.fProcs() - 1)
	if err != nil || st.exports == 0 {
		return
	}
	l["buffer.memcpy_per_export"] = float64(st.copies) / float64(st.exports)
	l["buffer.unnecessary_copies"] = float64(st.unnecessaryCopies)
	if st.copies > 0 {
		l["buffer.copy_ns_per_copy"] = float64(st.copyTime) / float64(st.copies)
	}
	l["buffer.tub_ms"] = float64(st.unnecessaryTime) / 1e6
	l["buffer.bytes_copied_mb"] = float64(st.bytesCopied) / (1 << 20)
	l["buffer.optimal_onset_export"] = st.onset
	if st.onset < 0 {
		l["buffer.optimal_onset_export"] = steps
	}
}

// ---------------------------------------------------------------------------
// collective_mix

const (
	floats64B  = 8
	floats8KiB = 1 << 10
	floats1MiB = 1 << 17
	bytes8KiB  = 8 << 10
	bytes1KiB  = 1 << 10
	largeEvery = 8
)

// collOps names the per-op samples of the traced pass, in step order.
var collOps = []string{"allreduce_64B", "allreduce_8KiB", "bcast_8KiB", "allgather_1KiB", "barrier"}

// opLarge is the 1 MiB AllReduce, timed as its own op every largeEvery steps.
const opLarge = "allreduce_1MiB"

type collFixture struct {
	w *workload
	g *collGroup

	finish [][]int64 // per rank, per step: when the step ended (traced pass)
}

func (cf *collFixture) close() { cf.g.close() }

func (cf *collFixture) procs(ep *epoch) []func() {
	g, n := cf.g, cf.w.ranks
	ep.stop = g.close
	rng := rand.New(rand.NewSource(ep.seed))
	roots := rng.Perm(n)     // the Bcast root rotates through a seeded order
	salt := rng.Intn(1 << 8) // and the contents are seeded
	base := make([]float64, floats1MiB)
	for i := range base {
		base[i] = float64((i*7 + salt) % 512)
	}
	// Every contribution is rank-dependent and every sum a small integer, so
	// each rank can compute the result locally: n(n+1)/2 times the base.
	tri := float64(n * (n + 1) / 2)
	cf.finish = make([][]int64, n)
	ep.call = make([]int64, 0, ep.steps)
	var out []func()
	for r := 0; r < n; r++ {
		r := r
		who := g.who(r)
		small, mid, large := make([]float64, floats64B), make([]float64, floats8KiB), make([]float64, floats1MiB)
		src, part := make([]byte, bytes8KiB), make([]byte, bytes1KiB)
		var opNS [5][]int64
		out = append(out, func() {
			// timed runs one collective op; false ends the rank's loop.
			timed := func(op int, step int, call func() error) bool {
				name := opLarge
				if op < len(collOps) {
					name = collOps[op]
				}
				t0 := nowNS()
				err := call()
				t1 := nowNS()
				ep.attempted.Add(1)
				if err != nil {
					ep.fail(fmt.Errorf("%s step %d %s: %w", who, step, name, err))
					return false
				}
				if op >= len(collOps) && r == 0 {
					ep.bulk = append(ep.bulk, t1-t0)
				}
				if ep.tr != nil {
					if op < len(collOps) {
						opNS[op] = append(opNS[op], t1-t0)
					}
					ep.tr.call("collective."+name, who, step, t0, t1)
				}
				return true
			}
			verify := func(ok bool) {
				if ep.corrupt() {
					ok = false
				}
				if !ok {
					ep.failed.Add(1)
				}
			}
			for s := 1; s <= ep.steps; s++ {
				fs := float64(s % 64)
				for i := range small {
					small[i] = float64(r+1)*base[i] + fs
				}
				for i := range mid {
					mid[i] = float64(r+1)*base[i] + fs
				}
				root := roots[s%n]
				if r == root {
					for i := range src {
						src[i] = byte(i + s + salt)
					}
				}
				for i := range part {
					part[i] = byte(i + s + 31*r)
				}
				var got []byte
				var parts [][]byte
				stepStart := nowNS()
				if !timed(0, s, func() error { return g.allReduce(r, small) }) ||
					!timed(1, s, func() error { return g.allReduce(r, mid) }) ||
					!timed(2, s, func() (err error) { got, err = g.bcast(r, root, src); return }) ||
					!timed(3, s, func() (err error) { parts, err = g.allGather(r, part); return }) ||
					!timed(4, s, func() error { return g.barrier(r) }) {
					return
				}
				stepEnd := nowNS()
				if r == 0 {
					ep.call = append(ep.call, stepEnd-stepStart)
				}
				if ep.tr != nil {
					cf.finish[r] = append(cf.finish[r], stepEnd)
					if r == 0 {
						ep.tr.call(spanStep, who, s, stepStart, stepEnd)
					}
				}
				ok := true
				for i, v := range small {
					ok = ok && v == tri*base[i]+float64(n)*fs
				}
				for i, v := range mid {
					ok = ok && v == tri*base[i]+float64(n)*fs
				}
				verify(ok)
				ok = len(got) == bytes8KiB
				for i := 0; ok && i < len(got); i++ {
					ok = got[i] == byte(i+s+salt)
				}
				verify(ok)
				ok = len(parts) == n
				for q := 0; ok && q < n; q++ {
					ok = len(parts[q]) == bytes1KiB
					for i := 0; ok && i < bytes1KiB; i++ {
						ok = parts[q][i] == byte(i+s+31*q)
					}
				}
				verify(ok)

				if s%largeEvery != 0 {
					continue
				}
				for i := range large {
					large[i] = float64(r+1)*base[i] + fs
				}
				if !timed(len(collOps), s, func() error { return g.allReduce(r, large) }) {
					return
				}
				// One rank, taking turns, compares the whole 1 MiB result;
				// the others a sample of it, to keep the loop the
				// program's.
				stride := 61
				if (s/largeEvery)%n == r {
					stride = 1
				}
				ok = true
				for i := 0; i < len(large); i += stride {
					ok = ok && large[i] == tri*base[i]+float64(n)*fs
				}
				verify(ok)
			}
			for op, ns := range opNS {
				if r == 0 {
					ep.addOps("collective."+collOps[op], ns)
				}
			}
		})
	}
	return out
}

func (cf *collFixture) collect(ep *epoch) {
	if ep.tr == nil {
		return
	}
	// Skew: last minus first rank to finish a step — time spent waiting for
	// other processes.
	var skew []int64
	for s := 0; s < ep.steps; s++ {
		lo, hi := int64(-1), int64(-1)
		for _, f := range cf.finish {
			if s >= len(f) {
				lo = -1
				break
			}
			if lo < 0 || f[s] < lo {
				lo = f[s]
			}
			hi = max(hi, f[s])
		}
		if lo >= 0 {
			skew = append(skew, hi-lo)
		}
	}
	ep.addOps("collective.skew", skew)
}
