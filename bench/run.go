package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// setup_s is the median, over setupBatches batches spread between the
	// epochs of a run, of a batch's build time per cold fixture cycle
	// (setupBatches x setupBatchCycles = 576 cycles, never a single shot).
	// The collector is off inside a batch and run between batches: a fixture
	// allocates up to 0.6 MB, so with the collector on half to two-thirds of
	// a cycle's cost was collection, and how often it ran followed the heap
	// the epochs had left behind (set-up "sped up" 3x over a run; NOISE.md).
	setupBatches     = 36
	setupBatchCycles = 16
	// tracedEpochs epochs run with tracing on, after as many without.
	tracedEpochs = 2
	// overrun is the share of -seconds after which a run on a machine too
	// slow for the workload's fixed epochs stops early and says so.
	overrun = 1.5
)

// result is what one run of one workload reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	defs              []metricDef
}

// useCores sizes the run to the machine: GOMAXPROCS = min(nproc, 4). The
// load comes from this one process, at most 12 goroutine "processes".
func useCores() (numCPU, procs int) {
	numCPU = runtime.NumCPU()
	procs = min(numCPU, 4)
	runtime.GOMAXPROCS(procs)
	return numCPU, procs
}

// setupBatch runs cycles cold fixture cycles (build until ready, then tear
// down) with the collector off and returns the build time per cycle in
// seconds.
func setupBatch(w *workload, cycles int) (float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var building int64
	for i := 0; i < cycles; i++ {
		t0 := nowNS()
		fx, err := w.newFixture(nil)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		building += nowNS() - t0
		fx.close()
	}
	return float64(building) / 1e9 / float64(cycles), nil
}

// oneEpoch builds a fresh fixture, runs one epoch on it behind a barrier and
// tears it down. The heap is collected first so that one epoch's garbage is
// not charged to the next.
func oneEpoch(w *workload, p params, steps int, tr *tracer) (*epoch, error) {
	fx, err := w.newFixture(tr)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	runtime.GC()
	ep := &epoch{steps: steps, seed: p.seed, corruptEvery: p.corruptEvery, tr: tr, layer: map[string]float64{}, ops: map[string][]int64{}}
	runEpoch(fx, ep)
	return ep, nil
}

// warmUp runs the one discarded epoch. It is a whole epoch: on fig4_buffered
// the first epoch of a process grows the heap to 600 MB and costs 40% more
// CPU per step than every later one.
func warmUp(w *workload, p params) error {
	ep, err := oneEpoch(w, p, p.stepsOf(w), nil)
	if err == nil && len(ep.errs) > 0 {
		err = ep.errs[0]
	}
	return err
}

// tally folds epochs into the correctness part of a result. Every call the
// benchmark planned must have been attempted, none may have failed, and the
// Figure-4 workloads must have stayed in their regime (a regime needs whole
// epochs to form, so scaled-down epochs are not held to it).
func (res *result) tally(w *workload, p params, eps []*epoch, out io.Writer) {
	res.correct = true
	for i, ep := range eps {
		res.attempted += ep.attempted.Load()
		res.failed += ep.failed.Load()
		for _, err := range ep.errs {
			fmt.Fprintf(out, "  epoch %d: call failed: %v\n", i, err)
		}
		if planned := w.plannedCalls(ep.steps); ep.attempted.Load() != planned {
			fmt.Fprintf(out, "  epoch %d: %d calls attempted, %d planned\n", i, ep.attempted.Load(), planned)
			res.correct = false
		}
		if m, ok := ep.layer["buffer.memcpy_per_export"]; ok && p.scale <= 1 {
			if m < w.memcpyAtLeast || (w.memcpyAtMost > 0 && m > w.memcpyAtMost) {
				fmt.Fprintf(out, "  epoch %d: memcpy_per_export %.3f is outside the workload's regime\n", i, m)
				res.correct = false
			}
		}
		if w.lead > 0 && ep.maxLead > w.lead {
			fmt.Fprintf(out, "  epoch %d: an exporter led by %d steps, window is %d\n", i, ep.maxLead, w.lead)
			res.correct = false
		}
	}
	if res.failed > 0 || res.attempted == 0 {
		res.correct = false
	}
}

// plannedCalls is how many calls into the program one epoch makes.
func (w *workload) plannedCalls(steps int) int64 {
	if w.shape == nil {
		return int64(w.ranks * (steps*len(collOps) + steps/largeEvery))
	}
	return int64(steps*w.shape.fProcs() + w.bulkCalls(steps))
}

func pooled(eps []*epoch, pick func(*epoch) []int64) []float64 {
	var all []int64
	for _, ep := range eps {
		all = append(all, pick(ep)...)
	}
	return nsToUS(all)
}

func perEpoch(eps []*epoch, f func(*epoch) float64) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = f(ep)
	}
	return out
}

// spread renders the quartiles of a per-epoch (or per-cycle) value, so every
// run carries its own dispersion.
func spread(xs []float64, of string) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%s n=%d", of, len(xs))
	}
	q := quartiles(xs)
	return fmt.Sprintf("%s q1 %.4g  q2 %.4g  q3 %.4g  n=%d", of, q[0], q[1], q[2], len(xs))
}

// epochsFor is the number of timed epochs of an untraced run: the workload's
// fixed count at runSeconds, in proportion for another -seconds.
func epochsFor(w *workload, seconds float64) int {
	return max(2, int(math.Round(float64(w.epochs)*seconds/runSeconds)))
}

// runUntraced is the measured pass: a discarded warm-up, then a fixed number
// of timed epochs on fresh fixtures, the set-up batches spread between them.
// Latencies are percentiles over the samples of all epochs; costs are medians
// over epochs. No means anywhere.
func runUntraced(w *workload, p params, seconds float64, out io.Writer) (*result, error) {
	numCPU, procs := useCores()
	fmt.Fprintf(out, "workload %s  seed %d  num_cpu %d  gomaxprocs %d  untraced\n", w.name, p.seed, numCPU, procs)
	fmt.Fprintf(out, "  why: %s\n", w.why)

	if err := warmUp(w, p); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	steps, planned := p.stepsOf(w), epochsFor(w, seconds)
	batches := max(setupBatches/max(p.scale, 1), planned)
	cycles := max(setupBatchCycles/max(p.scale, 1), 2)
	var eps []*epoch
	var setups []float64
	for began := time.Now(); len(eps) < planned; {
		for len(setups) < (len(eps)+1)*batches/planned {
			perCycle, err := setupBatch(w, cycles)
			if err != nil {
				return nil, err
			}
			setups = append(setups, perCycle)
		}
		ep, err := oneEpoch(w, p, steps, nil)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		if len(ep.errs) > 0 {
			break
		}
		if time.Since(began).Seconds() > overrun*seconds && len(eps) < planned {
			fmt.Fprintf(out, "  OVERRUN: %d of %d epochs took %.1f s, the run was given %.0f s; the rest are cut\n", len(eps), planned, time.Since(began).Seconds(), seconds)
			break
		}
	}

	res := &result{defs: endToEnd, metrics: map[string]float64{}}
	res.tally(w, p, eps, out)
	bulk := pooled(eps, func(ep *epoch) []int64 { return ep.bulk })
	// A run cut short may not pass as a measurement of the same thing.
	if want := planned * w.bulkCalls(steps) / 2; len(bulk) < want {
		fmt.Fprintf(out, "  %d samples of the bulk call, at least %d wanted\n", len(bulk), want)
		res.correct = false
	}
	cpu := perEpoch(eps, func(ep *epoch) float64 { return (ep.after.cpuUS - ep.before.cpuUS) / float64(ep.steps) })
	alloc := perEpoch(eps, func(ep *epoch) float64 { return float64(ep.after.alloc-ep.before.alloc) / 1024 / float64(ep.steps) })
	m := res.metrics
	m["bulk_p50_us"] = quantile(bulk, 0.5)
	m["cpu_us_per_step"] = median(cpu)
	m["alloc_kb_per_step"] = median(alloc)
	m["setup_s"] = median(setups)

	fmt.Fprintf(out, "  %d timed epochs of %d steps\n", len(eps), steps)
	printMetrics(out, res, map[string]string{
		"bulk_p50_us":       fmt.Sprintf("samples %d", len(bulk)),
		"cpu_us_per_step":   spread(cpu, "epochs"),
		"alloc_kb_per_step": spread(alloc, "epochs"),
		"setup_s":           spread(setups, fmt.Sprintf("batches of %d cycles", cycles)),
	})
	printVerdict(out, res)
	return res, nil
}

// bulkCalls is how many samples of the bulk call one epoch yields.
func (w *workload) bulkCalls(steps int) int {
	if w.shape == nil {
		return steps / largeEvery
	}
	return (steps - 1) / w.every * w.shape.uProcs
}

func printMetrics(out io.Writer, res *result, note map[string]string) {
	for _, d := range res.defs {
		v := res.metrics[d.name]
		if v == absent {
			fmt.Fprintf(out, "  %-34s %12s %-6s\n", d.name, "absent", d.unit)
			continue
		}
		fmt.Fprintf(out, "  %-34s %12.6g %-6s  %s\n", d.name, v, d.unit, note[d.name])
	}
}

func printVerdict(out io.Writer, res *result) {
	frac := 1.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(out, "  failed_frac %.6f (%d failed of %d calls attempted)  correct %v\n", frac, res.failed, res.attempted, res.correct)
}

// runTraced is the per-layer pass: a warm-up, tracedEpochs epochs without
// tracing (the accessor-read values and the baseline of the overhead), as
// many with the decorator and span recording on, then the isolated drives of
// single layers.
func runTraced(w *workload, p params, traceOut string, out io.Writer) (*result, error) {
	numCPU, procs := useCores()
	fmt.Fprintf(out, "workload %s  seed %d  num_cpu %d  gomaxprocs %d  traced\n", w.name, p.seed, numCPU, procs)
	if err := warmUp(w, p); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	steps := p.stepsOf(w)
	tr := &tracer{}
	var plain, traced []*epoch
	var refs []machineRef
	for i := 0; i < 2*tracedEpochs; i++ {
		var t *tracer
		if i >= tracedEpochs {
			t = tr
		}
		refs = append(refs, measureMachine())
		ep, err := oneEpoch(w, p, steps, t)
		if err != nil {
			return nil, err
		}
		if t == nil {
			plain = append(plain, ep)
		} else {
			traced = append(traced, ep)
		}
	}

	res := &result{defs: perLayer, metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.metrics[d.name] = absent
	}
	res.tally(w, p, append(append([]*epoch(nil), plain...), traced...), out)
	m := res.metrics

	// Values read from accessors after each untraced epoch: the median epoch.
	// buffer.peak_buffered_mb is polled by p_s and so comes from the traced
	// epochs.
	byName := map[string][]float64{}
	for _, ep := range plain {
		for name, v := range ep.layer {
			if v != absent {
				byName[name] = append(byName[name], v)
			}
		}
	}
	for _, ep := range traced {
		if v, ok := ep.layer["buffer.peak_buffered_mb"]; ok {
			byName["buffer.peak_buffered_mb"] = append(byName["buffer.peak_buffered_mb"], v)
		}
	}
	for name, vs := range byName {
		m[name] = median(vs)
	}

	// Throughput exists only where the loop is closed: where sleeps pace the
	// steps no change of the program can move it.
	if w.slowSleep == 0 {
		m["run.steps_per_s"] = median(perEpoch(plain, func(ep *epoch) float64 {
			return float64(ep.steps) / (float64(ep.after.ns-ep.before.ns) / 1e9)
		}))
	}
	call := pooled(plain, func(ep *epoch) []int64 { return ep.call })
	if w.shape != nil {
		imports := pooled(plain, func(ep *epoch) []int64 { return ep.bulk })
		m["core.export.p50_us"] = quantile(call, 0.5)
		m["core.export.p90_us"] = quantile(call, 0.9)
		m["core.export.p99_us"] = quantile(call, 0.99)
		m["core.export.samples"] = float64(len(call))
		m["core.import.p50_us"] = quantile(imports, 0.5)
		m["core.import.p90_us"] = quantile(imports, 0.9)
		m["core.import.p99_us"] = quantile(imports, 0.99)
		m["core.import.samples"] = float64(len(imports))
	} else {
		m["collective.small_step.p50_us"] = quantile(call, 0.5)
		m["collective.small_step.p90_us"] = quantile(call, 0.9)
		m["collective.allocs_per_step"] = median(perEpoch(plain, func(ep *epoch) float64 {
			return float64(ep.after.mallocs-ep.before.mallocs) / float64(ep.steps)
		}))
	}

	// Spans and counts of the traced epochs.
	tr.resolve()
	tracedSteps := float64(len(traced) * steps)
	msgs, bytes := tr.traffic()
	var allMsgs int
	var allBytes int64
	for c := range msgs {
		allMsgs += msgs[c]
		allBytes += bytes[c]
	}
	m["transport.sends_per_step"] = float64(allMsgs) / tracedSteps
	m["transport.bytes_per_step"] = float64(allBytes) / tracedSteps
	m["transport.msgs.control_per_step"] = float64(msgs[classControl]) / tracedSteps
	m["transport.msgs.data_per_step"] = float64(msgs[classData]) / tracedSteps
	m["transport.msgs.buddy_per_step"] = float64(msgs[classBuddy]) / tracedSteps
	m["transport.send_busy_ns_p50"] = median(tr.durations(func(s *span) bool { return s.name == spanSend }))
	hopAll := tr.durations(func(s *span) bool { return s.name == spanHop })
	hopData := tr.durations(func(s *span) bool { return s.name == spanHop && s.class == classData })
	hopCtl := tr.durations(func(s *span) bool { return s.name == spanHop && s.class == classControl })
	if len(hopAll) > 0 {
		m["transport.hop_us_p50"] = median(hopAll) / 1e3
	}
	if len(hopData) > 0 {
		m["transport.hop_data_us_p50"] = median(hopData) / 1e3
	}
	if w.shape == nil {
		m["collective.msgs_per_step"] = float64(msgs[classCollective]) / tracedSteps
		m["collective.bytes_per_step"] = float64(bytes[classCollective]) / tracedSteps
		for _, op := range collOps {
			m["collective."+op+".p50_us"] = quantile(pooled(traced, func(ep *epoch) []int64 { return ep.ops["collective."+op] }), 0.5)
		}
		m["collective."+opLarge+".p50_us"] = quantile(pooled(traced, func(ep *epoch) []int64 { return ep.bulk }), 0.5)
		m["collective.skew_us_p50"] = quantile(pooled(traced, func(ep *epoch) []int64 { return ep.ops["collective.skew"] }), 0.5)
	}
	tracedCall := pooled(traced, func(ep *epoch) []int64 { return ep.call })
	if base := quantile(call, 0.5); base > 0 {
		m["obsv.trace_overhead_frac"] = quantile(tracedCall, 0.5) / base
	}
	total, self, count := tr.selfTimes()
	var callTotal, callSelf int64
	for name, t := range total {
		if name != spanStep && name != spanSend && name != spanHop {
			callTotal += t
			callSelf += self[name]
		}
	}
	if callTotal > 0 {
		m["obsv.call_self_frac"] = float64(callSelf) / float64(callTotal)
	}

	// Isolated drives of single layers, with this workload's shapes; the
	// coupling layers are idle on collective_mix and stay absent there.
	drives := []func(map[string]float64) error{driveTransport, driveWire}
	if w.shape != nil {
		shape := *w.shape
		blockFloats := shape.grid / shape.fRows * (shape.grid / shape.fCols)
		drives = append(drives, driveCore, driveMatch, driveRep,
			func(o map[string]float64) error { return driveBuffer(blockFloats, o) },
			func(o map[string]float64) error { return driveDecomp(shape, o) })
	}
	for _, drive := range drives {
		if err := drive(m); err != nil {
			return nil, fmt.Errorf("layer drive: %w", err)
		}
	}

	m["process.peak_rss_mb"] = peakRSSMB()
	m["machine.num_cpu"] = float64(numCPU)
	m["machine.gomaxprocs"] = float64(procs)
	m["machine.ref_memcpy_128KiB_us"] = median(mapRefs(refs, func(r machineRef) float64 { return r.memcpy128K }))
	m["machine.ref_memcpy_1MiB_us"] = median(mapRefs(refs, func(r machineRef) float64 { return r.memcpy1M }))
	m["machine.ref_pingpong_us"] = median(mapRefs(refs, func(r machineRef) float64 { return r.pingpong }))

	fmt.Fprintf(out, "  %d untraced + %d traced epochs of %d steps, %d spans\n", len(plain), len(traced), steps, len(tr.spans))
	printMetrics(out, res, nil)
	fmt.Fprintf(out, "  spans by name: count, total ms, self ms (duration minus the part children cover)\n")
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "    %-28s %8d %12.3f %12.3f\n", name, count[name], float64(total[name])/1e6, float64(self[name])/1e6)
	}
	if w.shape != nil && len(hopCtl) > 0 {
		printImportBudget(out, m, median(hopCtl)/1e3, *w.shape)
	}
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  chrome trace: %s\n", traceOut)
	}
	printVerdict(out, res)
	return res, nil
}

func mapRefs(refs []machineRef, f func(machineRef) float64) []float64 {
	out := make([]float64, len(refs))
	for i, r := range refs {
		out[i] = f(r)
	}
	return out
}

// printImportBudget sets the layers' shares beside the measured Import: the
// message transit measured in place (six control hops — import call, request,
// forward, response, answer, answer fan-out — and one data hop, each at its
// class's median hop time), a rank's share of pack and unpack, and
// core.rep_roundtrip_us, the processing of a whole Import measured in a tight
// loop on a 4x4 grid (its own hops, between running goroutines, are about a
// microsecond each and so hardly counted twice). What is left is mostly the
// wake-up of parked goroutines between a hop's delivery and its handling,
// which no call from outside the program can time.
func printImportBudget(out io.Writer, m map[string]float64, hopCtlUS float64, shape couplingShape) {
	const controlHops = 6
	rankKB := float64(shape.grid*shape.grid*8) / 1024 / float64(shape.uProcs)
	pack := m["decomp.pack_ns_per_kb"] * rankKB / 1e3
	unpack := m["decomp.unpack_ns_per_kb"] * rankKB / 1e3
	trip, hopData, imp := m["core.rep_roundtrip_us"], max(m["transport.hop_data_us_p50"], 0), m["core.import.p50_us"]
	sum := controlHops*hopCtlUS + hopData + pack + unpack + trip
	fmt.Fprintf(out, "  import budget (us): %d control hops x %.1f + data hop %.1f + pack %.1f + unpack %.1f + rep round trip %.1f = %.1f;"+
		" core.import.p50_us %.1f; unexplained remainder %.1f (%.0f%%)\n",
		controlHops, hopCtlUS, hopData, pack, unpack, trip, sum, imp, imp-sum, 100*(imp-sum)/imp)
}
