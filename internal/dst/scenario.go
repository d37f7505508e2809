package dst

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/recover"
	"repro/internal/transport"
)

// The scenario script: the repository's two protocol stories, each written
// once as a function of the environment (Env) it runs in — a World on the
// virtual clock, or FaultNetwork / TCP on the wall clock. Exchange is the
// Figure-4-style F->U run with exact REGL ground truth; KillRestart is
// checkpoint -> kill the importer -> restore -> rejoin, compared with a
// fault-free reference. The script owns everything above the environment's
// substrate: the reliable layer, the Checker, the frameworks, the rank loops
// and the whole invariant set — Property-1 conformance (the framework's own
// violation detection), exact match results against the analytic ground
// truth, every delivered cell, exactly-once in-order delivery and matcher
// monotonicity (Checker), buffer-pool ownership (PoolViolations), exactly-once
// transfer accounting, and no false peer-death under the heartbeat. The
// paper's promise is that the outcome is a function of the export/import
// history alone, so one workload has one digest in every environment.

// Workload sizes a scenario. Both stories couple exporter F (row blocks) to
// importer U (column blocks) over a GridN x GridN region under REGL.
type Workload struct {
	GridN, ExpProcs, ImpProcs int
	// Steps is the number of exports per exporter rank.
	Steps     int
	Tolerance float64
	// MatchEvery (Exchange): one import request per MatchEvery exports.
	MatchEvery int
	// Jitter (Exchange), when positive, has every importer rank sleep a
	// seeded-random duration below it before each Import, so requests land
	// at arbitrary points of the exporters' pipelines.
	Jitter time.Duration
	// CkptEvery and CrashAfter (KillRestart): the collective checkpoint
	// schedule, and the step after which the importer is killed. A crash
	// off the schedule makes the restarted incarnation re-execute steps.
	CkptEvery, CrashAfter int
	// Heartbeat is the rep failure-detection interval (on in every run: the
	// injected faults must not read as a dead peer), Resend the reliable
	// layer's retransmit interval, Timeout the bound on blocking waits.
	Heartbeat, Resend, Timeout time.Duration
}

// Result summarizes one scenario run.
type Result struct {
	Seed int64
	// Digest fingerprints the run's protocol outcomes — every (rank, step)
	// match timestamp and delivered-block hash, folded in deterministic
	// order. It must be identical on every run, under every seed and in
	// every environment: this is the paper's collective-semantics
	// determinism, checked end to end.
	Digest uint64
	// Matched counts delivered import matches across all ranks.
	Matched int
	// Replayed is how many completed steps KillRestart's restarted importer
	// re-executed; Checkpoints how many checkpoints importer rank 0 took.
	Replayed, Checkpoints int
	Traffic
}

// simCell is the ground-truth value of global cell (r,c) at timestamp ts.
func simCell(ts float64, r, c int) float64 { return ts*1e6 + float64(r*1000+c) }

// hashBlock fingerprints one delivered block (FNV-1a over raw float bits:
// equal hashes mean byte-identical data).
func hashBlock(d []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range d {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// outcome is one delivered import: which export it matched and what bytes
// arrived.
type outcome struct {
	MatchTS float64
	Hash    uint64
}

// outcomes accumulates per-(rank, step) deliveries; a re-executed step after
// a restart records a second copy.
type outcomes struct {
	mu   sync.Mutex
	recs map[string][]outcome
}

func newOutcomes() *outcomes { return &outcomes{recs: make(map[string][]outcome)} }

func (o *outcomes) record(rank, step int, ts float64, h uint64) {
	key := fmt.Sprintf("%d/%d", rank, step)
	o.mu.Lock()
	o.recs[key] = append(o.recs[key], outcome{MatchTS: ts, Hash: h})
	o.mu.Unlock()
}

// digest folds every outcome in sorted key order into one fingerprint.
func (o *outcomes) digest() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]string, 0, len(o.recs))
	for k := range o.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{0})
		for _, oc := range o.recs[k] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(oc.MatchTS))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], oc.Hash)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// total counts recorded deliveries.
func (o *outcomes) total() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, recs := range o.recs {
		n += len(recs)
	}
	return n
}

// pass is one execution of a story in one environment: the stack recipe and
// the recorders every framework incarnation of the pass shares.
type pass struct {
	env      *Env
	wl       Workload
	coupling *config.Config
	layouts  map[string]decomp.Layout // program -> its layout of region "f"
	chk      *Checker
	out      *outcomes
	ckpts    atomic.Int64 // checkpoints importer rank 0 completed
}

func newPass(env *Env, wl Workload) (*pass, error) {
	expLayout, err := decomp.NewRowBlock(wl.GridN, wl.GridN, wl.ExpProcs)
	if err != nil {
		return nil, err
	}
	impLayout, err := decomp.NewColBlock(wl.GridN, wl.GridN, wl.ImpProcs)
	if err != nil {
		return nil, err
	}
	return &pass{
		env: env,
		wl:  wl,
		coupling: &config.Config{
			Programs: []config.Program{
				{Name: "F", Cluster: "local", Binary: "builtin", Procs: wl.ExpProcs},
				{Name: "U", Cluster: "local", Binary: "builtin", Procs: wl.ImpProcs},
			},
			Connections: []config.Connection{{
				Export:    config.Endpoint{Program: "F", Region: "f"},
				Import:    config.Endpoint{Program: "U", Region: "f"},
				Policy:    match.REGL,
				Tolerance: wl.Tolerance,
			}},
		},
		layouts: map[string]decomp.Layout{"F": expLayout, "U": impLayout},
		chk:     NewChecker(),
		out:     newOutcomes(),
	}, nil
}

// open builds one framework incarnation on the canonical stack — environment
// substrate, ReliableNetwork, Checker — hosting program (or both, when "")
// with region "f" defined, and starts it.
func (p *pass) open(program string, rec *core.RecoveryOptions, epoch uint64) (*core.Framework, error) {
	rel := transport.NewReliableNetwork(p.env.attach(epoch), transport.ReliableConfig{
		SessionEpoch:   uint32(epoch),
		ResendInterval: p.wl.Resend,
		Clock:          p.env.clock,
	})
	net := p.chk.Wrap(rel)
	// Rejoin's resetPeerSessions and the transport.frames.* gauges look for
	// the reliable layer from the top of the stack.
	if transport.FindLayer[*transport.ReliableNetwork](net) != rel {
		net.Close()
		return nil, fmt.Errorf("dst: the reliable layer is not reachable through the checker")
	}
	opts := core.Options{
		Network:   net,
		BuddyHelp: true,
		Timeout:   p.wl.Timeout,
		Heartbeat: p.wl.Heartbeat,
		Recovery:  rec,
		Clock:     p.env.clock,
	}
	var fw *core.Framework
	var err error
	if program == "" {
		fw, err = core.New(p.coupling, opts)
	} else {
		fw, err = core.Join(p.coupling, program, opts)
	}
	if err != nil {
		net.Close()
		return nil, err
	}
	for name, layout := range p.layouts {
		if program != "" && program != name {
			continue
		}
		if err := fw.MustProgram(name).DefineRegion("f", layout); err != nil {
			fw.Close()
			return nil, err
		}
	}
	if err := fw.Start(); err != nil {
		fw.Close()
		return nil, err
	}
	return fw, nil
}

// drive runs body under the environment's driver; a failure — a stall or a
// hang diagnosed by the driver included — names the seed and what the
// network injected.
func (p *pass) drive(body func() error) error {
	if err := p.env.drive(body); err != nil {
		return fmt.Errorf("%w (seed %d, traffic %+v)", err, p.env.seed, p.env.traffic())
	}
	return nil
}

// settle is a framework's end-of-life check, made once its ranks are done.
// If it hosts the exporter: after a drain (requests that arrived after
// FinishRegion queue transfers too) TransferDone must have been applied
// exactly once per data send on each connection — no more (a double free)
// and no less (a leak). Then: no pool violation, and no latched framework
// error (a Property-1 violation, a false peer death).
func settle(fw *core.Framework) error {
	if prog, err := fw.Program("F"); err == nil {
		err := eachRank(prog, func(r int, proc *core.Process) error {
			if err := proc.Flush("f"); err != nil {
				return err
			}
			stats, err := proc.ExportStats("f")
			if err != nil {
				return err
			}
			for conn, st := range stats {
				if st.TransferDones != st.Sends {
					return fmt.Errorf("dst: exporter rank %d conn %s: %d TransferDones for %d sends",
						r, conn, st.TransferDones, st.Sends)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if v := fw.PoolViolations(); len(v) > 0 {
		return fmt.Errorf("dst: buffer pool violations: %v", v)
	}
	return fw.Err()
}

// firstErr collects n results and returns at the first error; the caller's
// teardown aborts whoever is still running.
func firstErr(errs <-chan error, n int) error {
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// eachRank runs body on every rank of prog concurrently.
func eachRank(prog *core.Program, body func(r int, p *core.Process) error) error {
	errs := make(chan error, prog.Procs())
	for r := 0; r < prog.Procs(); r++ {
		go func(r int) { errs <- body(r, prog.Process(r)) }(r)
	}
	return firstErr(errs, prog.Procs())
}

// exportRanks is the exporter rank loop: every rank exports steps 1..Steps
// at timestamp ts(k), checkpointing every ckptEvery steps when positive, then
// declares the stream finished so trailing requests resolve even if they
// arrive after the last export — at once when hold is nil, else when hold
// closes (an importer that may yet restart must find the stream as it left
// it; shutdown coordination is application-level).
func (p *pass) exportRanks(prog *core.Program, ts func(k int) float64, ckptEvery int, hold <-chan struct{}) error {
	return eachRank(prog, func(r int, proc *core.Process) error {
		block, err := proc.Block("f")
		if err != nil {
			return err
		}
		g := decomp.NewGrid(block)
		for k := 1; k <= p.wl.Steps; k++ {
			t := ts(k)
			g.Fill(func(r, c int) float64 { return simCell(t, r, c) })
			if err := proc.Export("f", t, g.Data); err != nil {
				return err
			}
			if ckptEvery > 0 && k%ckptEvery == 0 {
				if err := proc.Checkpoint(uint64(k)); err != nil {
					return err
				}
			}
		}
		if hold != nil {
			<-hold
		}
		return proc.FinishRegion("f")
	})
}

// importRanks is the importer rank loop: every rank issues requests from..to,
// request k at reqTS(k), and must be answered MATCH at exactly wantTS(k) with
// every cell of its block equal to the cell function; the delivery is
// recorded, and the rank checkpoints every ckptEvery requests when positive.
func (p *pass) importRanks(prog *core.Program, from, to int, reqTS, wantTS func(k int) float64, ckptEvery int) error {
	return eachRank(prog, func(r int, proc *core.Process) error {
		block, err := proc.Block("f")
		if err != nil {
			return err
		}
		var jitter *rand.Rand
		if p.wl.Jitter > 0 {
			jitter = rand.New(rand.NewSource(p.env.seed*1009 + int64(r)))
		}
		dst := make([]float64, block.Area())
		for k := from; k <= to; k++ {
			if jitter != nil {
				p.env.clock.Sleep(time.Duration(jitter.Int63n(int64(p.wl.Jitter))))
			}
			req, want := reqTS(k), wantTS(k)
			res, err := proc.Import("f", req, dst)
			if err != nil {
				return err
			}
			if !res.Matched || res.MatchTS != want {
				return fmt.Errorf("dst: import rank %d @%g resolved %+v, want match @%g", r, req, res, want)
			}
			g := decomp.Grid{Block: block, Data: dst}
			for rr := block.R0; rr < block.R1; rr++ {
				for cc := block.C0; cc < block.C1; cc++ {
					if got, cell := g.At(rr, cc), simCell(want, rr, cc); got != cell {
						return fmt.Errorf("dst: data corrupt at (%d,%d)@%g: got %v, want %v", rr, cc, want, got, cell)
					}
				}
			}
			p.out.record(r, k, res.MatchTS, hashBlock(dst))
			if ckptEvery > 0 && k%ckptEvery == 0 {
				if err := proc.Checkpoint(uint64(k)); err != nil {
					return err
				}
				if r == 0 {
					p.ckpts.Add(1)
				}
			}
		}
		return nil
	})
}

// result closes the pass's books after requests collective import requests:
// no Checker violation, a Checker that was watching (an exporter process
// answers every request decisively, so fewer decisions than requests means
// the response tap went blind), every rank's deliveries recorded.
func (p *pass) result(requests int) (*Result, error) {
	if err := p.chk.Err(); err != nil {
		return nil, err
	}
	if got := p.chk.decisions(); got < requests {
		return nil, fmt.Errorf("dst: checker saw %d decisive responses for %d import requests", got, requests)
	}
	if got, want := p.out.total(), p.wl.ImpProcs*requests; got != want {
		return nil, fmt.Errorf("dst: %d deliveries recorded, want %d", got, want)
	}
	return &Result{
		Seed:        p.env.seed,
		Digest:      p.out.digest(),
		Matched:     p.out.total(),
		Checkpoints: int(p.ckpts.Load()),
		Traffic:     p.env.traffic(),
	}, nil
}

// Exchange runs the Figure-4-style story in env: one framework hosts both
// programs; F exports at timestamps k+0.6 and U imports at j*MatchEvery, so
// REGL with tolerance >= 1 deterministically matches export
// j*MatchEvery-0.4 — any other answer, in any environment, is a protocol bug.
func (wl Workload) Exchange(env *Env) (*Result, error) {
	if wl.MatchEvery <= 0 || wl.Steps%wl.MatchEvery != 0 {
		return nil, fmt.Errorf("dst: exchange of %d exports is not a multiple of match-every %d", wl.Steps, wl.MatchEvery)
	}
	p, err := newPass(env, wl)
	if err != nil {
		return nil, err
	}
	requests := wl.Steps / wl.MatchEvery
	err = p.drive(func() error {
		fw, err := p.open("", nil, 0)
		if err != nil {
			return err
		}
		defer fw.Close()
		errs := make(chan error, 2)
		go func() {
			errs <- p.exportRanks(fw.MustProgram("F"), func(k int) float64 { return float64(k) + 0.6 }, 0, nil)
		}()
		go func() {
			errs <- p.importRanks(fw.MustProgram("U"), 1, requests,
				func(j int) float64 { return float64(j * wl.MatchEvery) },
				func(j int) float64 { return float64(j*wl.MatchEvery-1) + 0.6 }, 0)
		}()
		if err := firstErr(errs, 2); err != nil {
			return err
		}
		return settle(fw)
	})
	if err != nil {
		return nil, err
	}
	return p.result(requests)
}

// killRestartPass runs the kill-restart workload once in env: F and U join
// as separate frameworks and step k is one export at timestamp k matched by
// one import at k. With crash unset it is the reference: no crash, no
// checkpointing. With crash set both sides checkpoint on the collective
// schedule, U's framework is torn down after CrashAfter steps, and a fresh
// incarnation restores, rejoins under the next session epoch, and finishes.
func (wl Workload) killRestartPass(env *Env, crash bool) (*pass, *Result, error) {
	p, err := newPass(env, wl)
	if err != nil {
		return nil, nil, err
	}
	store := recover.NewMemStore()
	recOpts := func(restore bool) *core.RecoveryOptions {
		if !crash {
			return nil
		}
		return &core.RecoveryOptions{Store: store, Restore: restore, Every: wl.CkptEvery}
	}
	ckptEvery, requests := 0, wl.Steps
	if crash {
		ckptEvery, requests = wl.CkptEvery, wl.Steps+wl.CrashAfter%wl.CkptEvery
	}
	step := func(k int) float64 { return float64(k) }
	// run hosts program in one framework incarnation for the length of app.
	run := func(program string, rec *core.RecoveryOptions, epoch uint64, app func(*core.Program) error) error {
		fw, err := p.open(program, rec, epoch)
		if err != nil {
			return err
		}
		defer fw.Close()
		if err := app(fw.MustProgram(program)); err != nil {
			return err
		}
		return settle(fw)
	}

	err = p.drive(func() error {
		done := make(chan struct{})
		var doneOnce sync.Once
		finish := func() { doneOnce.Do(func() { close(done) }) }
		defer finish()

		expErr := make(chan error, 1)
		go func() {
			expErr <- run("F", recOpts(false), 0, func(prog *core.Program) error {
				return p.exportRanks(prog, step, ckptEvery, done)
			})
		}()

		impTo := wl.Steps
		if crash {
			impTo = wl.CrashAfter
		}
		err := run("U", recOpts(false), 0, func(prog *core.Program) error {
			return p.importRanks(prog, 1, impTo, step, step, ckptEvery)
		})
		if err != nil {
			return err
		}
		if crash {
			// U's first incarnation is gone — framework and endpoints closed;
			// from F's point of view the program died. Restart: load the
			// checkpoint to learn the restart epoch, rebuild the transport
			// session under it, restore, rejoin and finish the workload.
			ck, err := store.Load("U")
			if err != nil {
				return err
			}
			if ck == nil {
				return fmt.Errorf("dst: no checkpoint saved before the crash")
			}
			err = run("U", recOpts(true), ck.Epoch+1, func(prog *core.Program) error {
				seq, ok := prog.RestoredSeq()
				if !ok {
					return fmt.Errorf("dst: restore did not surface the checkpoint")
				}
				return p.importRanks(prog, int(seq)+1, wl.Steps, step, step, ckptEvery)
			})
			if err != nil {
				return err
			}
		}
		finish()
		return <-expErr
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := p.result(requests)
	return p, res, err
}

// KillRestart runs the crash-recovery story, each pass in a fresh
// environment from newEnv: a fault-free reference pass without checkpointing
// and a checkpointed kill-and-restart pass. Every block the recovering run
// delivers — including the steps re-executed from the last checkpoint — must
// be byte-identical to the reference (so neither the crash nor the
// checkpoints perturb the data plane), and exactly the replayed steps must be
// delivered twice.
func (wl Workload) KillRestart(newEnv func() (*Env, error)) (*Result, error) {
	if wl.CkptEvery <= 0 || wl.CrashAfter <= wl.CkptEvery || wl.CrashAfter >= wl.Steps {
		return nil, fmt.Errorf("dst: kill-restart wants 0 < CkptEvery < CrashAfter < Steps, got %d/%d/%d",
			wl.CkptEvery, wl.CrashAfter, wl.Steps)
	}
	runPass := func(crash bool) (*pass, *Result, error) {
		env, err := newEnv()
		if err != nil {
			return nil, nil, err
		}
		defer env.Close()
		return wl.killRestartPass(env, crash)
	}
	ref, _, err := runPass(false)
	if err != nil {
		return nil, fmt.Errorf("dst: reference pass: %w", err)
	}
	crash, res, err := runPass(true)
	if err != nil {
		return nil, fmt.Errorf("dst: crash pass: %w", err)
	}

	// The steps between the last checkpoint and the crash are delivered
	// twice — once per incarnation; every other step exactly once.
	res.Replayed = wl.CrashAfter % wl.CkptEvery
	for r := 0; r < wl.ImpProcs; r++ {
		for k := 1; k <= wl.Steps; k++ {
			key := fmt.Sprintf("%d/%d", r, k)
			want := ref.out.recs[key]
			if len(want) != 1 {
				return nil, fmt.Errorf("dst: reference pass delivered import %s %d times", key, len(want))
			}
			copies := 1
			if k > wl.CrashAfter-res.Replayed && k <= wl.CrashAfter {
				copies = 2
			}
			got := crash.out.recs[key]
			if len(got) != copies {
				return nil, fmt.Errorf("dst: crash pass delivered import %s %d times, want %d", key, len(got), copies)
			}
			for i, oc := range got {
				if oc != want[0] {
					return nil, fmt.Errorf("dst: crash pass import %s copy %d = %+v differs from fault-free %+v",
						key, i, oc, want[0])
				}
			}
		}
	}
	if want := wl.Steps / wl.CkptEvery; res.Checkpoints != want {
		return nil, fmt.Errorf("dst: importer took %d checkpoints, want %d", res.Checkpoints, want)
	}
	return res, nil
}

// simWorkload sizes the virtual-clock sweeps; the cross-environment test
// runs the same sizes on the wall clock and requires the same digests.
func simWorkload() Workload {
	return Workload{
		GridN: 8, ExpProcs: 2, ImpProcs: 2,
		Heartbeat: 200 * time.Millisecond,
		Resend:    5 * time.Millisecond,
		Timeout:   60 * time.Second,
	}
}

// exchangeWorkload: 24 exports, a request every 4th.
func exchangeWorkload() Workload {
	wl := simWorkload()
	wl.Steps, wl.MatchEvery, wl.Tolerance = 24, 4, 2.5
	return wl
}

// killRestartWorkload: checkpoint at 8, crash after 10 — steps 9..10 are
// re-executed.
func killRestartWorkload() Workload {
	wl := simWorkload()
	wl.Steps, wl.CkptEvery, wl.CrashAfter, wl.Tolerance = 12, 4, 10, 0.5
	return wl
}

// simWorld is a World whose faults are drawn in millisecond quanta.
func simWorld(seed int64, dropPermille, delayPermille, maxDelayQuanta int) *World {
	return NewWorld(Config{
		Seed:           seed,
		DropPermille:   dropPermille,
		DelayPermille:  delayPermille,
		MaxDelayQuanta: maxDelayQuanta,
		Quantum:        time.Millisecond,
	})
}

// RunFigure4 is the delay-only scenario: no message is lost, but a third of
// them arrive late and out of order, exploring a different interleaving of
// the matcher/buddy-help protocol per seed.
func RunFigure4(seed int64) (*Result, error) {
	w := simWorld(seed, 0, 350, 4)
	defer w.Close()
	return exchangeWorkload().Exchange(w.env())
}

// RunChaos adds message loss below the reliable layer: drops must cost
// retransmission latency, never correctness.
func RunChaos(seed int64) (*Result, error) {
	w := simWorld(seed, 150, 250, 3)
	defer w.Close()
	return exchangeWorkload().Exchange(w.env())
}

// RunKillRestart runs the crash-recovery story under loss and delay, both
// passes under the same seed.
func RunKillRestart(seed int64) (*Result, error) {
	return killRestartWorkload().KillRestart(func() (*Env, error) {
		return simWorld(seed, 100, 250, 3).env(), nil
	})
}
