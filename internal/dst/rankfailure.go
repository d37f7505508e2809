package dst

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Rank-failure scenario: a group of raw collective.Comm ranks runs healthy
// rounds under the virtual clock, then one rank dies mid-collective (its
// endpoint closes, so in-flight deliveries vanish and new sends bounce). The
// survivors must all fail with a typed fault — never hang — then revoke,
// agree on the identical failed set, shrink, re-run the interrupted round on
// the survivor group and keep computing through an op mix. The outcome digest
// is a pure function of the inputs, so it must be identical across seeds and
// equal to the composed fault-free reference: a full-group run of the healthy
// prefix plus a survivor-subset run of the remainder
// (RunRankFailureReference).

// RankFailureConfig sizes one rank-failure run.
type RankFailureConfig struct {
	Seed          int64
	Ranks         int // default 5
	DeadRank      int // rank that crashes (default 2)
	PreRounds     int // healthy full-group rounds before the crash (default 2)
	PostRounds    int // rounds on the shrunk group, incl. the re-run (default 3)
	VecLen        int // AllReduce floats per rank (default 64)
	DelayPermille int // delivery-delay chaos; drops stay off (death ≠ loss)
}

func (c *RankFailureConfig) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 5
	}
	if c.DeadRank <= 0 || c.DeadRank >= c.Ranks {
		c.DeadRank = 2 % c.Ranks
	}
	if c.PreRounds <= 0 {
		c.PreRounds = 2
	}
	if c.PostRounds <= 0 {
		c.PostRounds = 3
	}
	if c.VecLen <= 0 {
		c.VecLen = 64
	}
}

// RankFailureResult summarizes one run.
type RankFailureResult struct {
	Seed   int64
	Digest uint64
	Ops    int   // recorded outcomes folded into the digest
	Agreed []int // the failed set every survivor agreed on
	Traffic
}

// ftRound runs one post-recovery round of the op mix on comm c and records
// its outcomes under the pre-failure base rank ids, which are stable across
// the shrink re-numbering. baseOf maps the comm's dense ranks to base ranks.
func ftRound(c *collective.Comm, k, vecLen int, baseOf []int, out *outcomes) error {
	base := baseOf[c.Rank()]

	in := chaosVec(base, k, vecLen)
	sum, err := c.AllReduce(in, collective.Sum)
	if err != nil {
		return fmt.Errorf("round %d allreduce: %w", k, err)
	}
	out.record(base, 10*k+0, 0, hashBytes(wire.AppendFloat64s(nil, sum)))

	root := k % c.Size()
	var payload []byte
	if c.Rank() == root {
		payload = make([]byte, 256)
		for i := range payload {
			payload[i] = byte(i*31 + k*7)
		}
	}
	got, err := c.Bcast(root, payload)
	if err != nil {
		return fmt.Errorf("round %d bcast: %w", k, err)
	}
	out.record(base, 10*k+1, 0, hashBytes(got))

	part := wire.AppendFloat64s(nil, chaosVec(base, k+1000, 7))
	parts, err := c.Gather(root, part)
	if err != nil {
		return fmt.Errorf("round %d gather: %w", k, err)
	}
	if c.Rank() == root {
		out.record(base, 10*k+2, 0, hashBytes(bytes.Join(parts, []byte{0xff})))
	}

	if err := c.Barrier(); err != nil {
		return fmt.Errorf("round %d barrier: %w", k, err)
	}
	return nil
}

// ringTable forces the ring AllReduce whatever the vector size; a Shrink
// hands it on to the survivor comm.
func ringTable() *collective.Table {
	t := collective.DefaultTable()
	t.AllReduceRingBytes = 0
	return t
}

// identityRanks is the base-rank map of an unshrunk comm.
func identityRanks(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// RunRankFailure executes one seeded rank-failure run and returns its outcome
// digest and the agreed failed set.
func RunRankFailure(cfg RankFailureConfig) (*RankFailureResult, error) {
	cfg.defaults()
	w := NewWorld(Config{
		Seed:           cfg.Seed,
		DelayPermille:  cfg.DelayPermille,
		MaxDelayQuanta: 8,
		Quantum:        time.Millisecond,
	})
	defer w.Close()
	out := newOutcomes()
	agreed := make([][]int, cfg.Ranks)

	err := w.Run(func() error {
		net := w.View()
		defer net.Close()

		table := ringTable()
		comms := make([]*collective.Comm, cfg.Ranks)
		disps := make([]*transport.Dispatcher, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			ep, err := net.Register(transport.Proc("F", r))
			if err != nil {
				return err
			}
			disps[r] = transport.NewDispatcherClock(ep, w.Clock())
			c, err := collective.New(disps[r], "F", r, cfg.Ranks)
			if err != nil {
				return err
			}
			// Virtual seconds: long enough that delay chaos (≤8ms) can never
			// fake a death, short enough that real detection is instant wall
			// time under the driver.
			c.SetTimeout(2 * time.Second)
			c.SetTable(table)
			comms[r] = c
		}

		errs := make(chan error, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			go func(r int) {
				errs <- func() error {
					c := comms[r]

					// Healthy prefix: full-group AllReduce rounds.
					for k := 0; k < cfg.PreRounds; k++ {
						in := chaosVec(r, k, cfg.VecLen)
						sum, err := c.AllReduce(in, collective.Sum)
						if err != nil {
							return fmt.Errorf("pre round %d: %w", k, err)
						}
						out.record(r, 10*k+0, 0, hashBytes(wire.AppendFloat64s(nil, sum)))
					}

					if r == cfg.DeadRank {
						// Crash: the endpoint disappears mid-round from the
						// survivors' point of view.
						return disps[r].Close()
					}

					// The interrupted round: must fail typed, never hang.
					kill := cfg.PreRounds
					_, err := c.AllReduce(chaosVec(r, kill, cfg.VecLen), collective.Sum)
					if err == nil {
						return fmt.Errorf("round %d allreduce succeeded with rank %d dead", kill, cfg.DeadRank)
					}
					var rf *collective.RankFailedError
					if !errors.As(err, &rf) && !errors.Is(err, collective.ErrRevoked) {
						return fmt.Errorf("round %d: untyped failure %w", kill, err)
					}

					// Recover: revoke, agree, shrink.
					c.Revoke()
					failed, err := c.AgreeFailures()
					if err != nil {
						return fmt.Errorf("agree: %w", err)
					}
					agreed[r] = failed
					nc, err := c.Shrink(failed)
					if err != nil {
						return fmt.Errorf("shrink: %w", err)
					}

					// Survivor base ranks in dense shrunk order.
					baseOf := make([]int, nc.Size())
					for nr := range baseOf {
						baseOf[nr] = nc.BaseRank(nr)
					}

					// Re-run the interrupted round, then the rest of the mix.
					for k := kill; k < kill+cfg.PostRounds; k++ {
						if err := ftRound(nc, k, cfg.VecLen, baseOf, out); err != nil {
							return err
						}
					}
					return nil
				}()
			}(r)
		}
		for r := 0; r < cfg.Ranks; r++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dst: rank failure seed %d: %w", cfg.Seed, err)
	}

	// Property 1 for failures: every survivor agreed on the identical set.
	var ref []int
	for r := 0; r < cfg.Ranks; r++ {
		if r == cfg.DeadRank {
			continue
		}
		if ref == nil {
			ref = agreed[r]
		}
		if fmt.Sprint(agreed[r]) != fmt.Sprint(ref) {
			return nil, fmt.Errorf("dst: rank failure seed %d: rank %d agreed %v, others %v",
				cfg.Seed, r, agreed[r], ref)
		}
	}
	return &RankFailureResult{
		Seed:    cfg.Seed,
		Digest:  out.digest(),
		Ops:     out.total(),
		Agreed:  ref,
		Traffic: w.traffic(),
	}, nil
}

// RunRankFailureReference computes the fault-free composed digest a
// RunRankFailure run must reproduce: a full-group run of the healthy prefix
// rounds plus a survivor-subset run (the dead rank never created) of the
// re-run and post-recovery rounds, all on a calm network. Both pieces fold
// into one outcome set under base-rank ids, exactly as the failure run
// records them.
func RunRankFailureReference(cfg RankFailureConfig) (*RankFailureResult, error) {
	cfg.defaults()
	out := newOutcomes()

	// Piece 1: full group, healthy prefix (AllReduce rounds only).
	if err := runCalmGroup(cfg.Seed, identityRanks(cfg.Ranks), func(c *collective.Comm, baseOf []int) error {
		base := baseOf[c.Rank()]
		for k := 0; k < cfg.PreRounds; k++ {
			in := chaosVec(base, k, cfg.VecLen)
			sum, err := c.AllReduce(in, collective.Sum)
			if err != nil {
				return fmt.Errorf("pre round %d: %w", k, err)
			}
			out.record(base, 10*k+0, 0, hashBytes(wire.AppendFloat64s(nil, sum)))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("dst: rank failure reference (prefix): %w", err)
	}

	// Piece 2: survivor subset, re-run + post-recovery op mix.
	survivors := make([]int, 0, cfg.Ranks-1)
	for r := 0; r < cfg.Ranks; r++ {
		if r != cfg.DeadRank {
			survivors = append(survivors, r)
		}
	}
	if err := runCalmGroup(cfg.Seed, survivors, func(c *collective.Comm, baseOf []int) error {
		for k := cfg.PreRounds; k < cfg.PreRounds+cfg.PostRounds; k++ {
			if err := ftRound(c, k, cfg.VecLen, baseOf, out); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("dst: rank failure reference (survivors): %w", err)
	}

	return &RankFailureResult{Seed: cfg.Seed, Digest: out.digest(), Ops: out.total()}, nil
}

// runCalmGroup runs body on every rank of a fault-free virtual-clock group
// whose dense ranks map to the given base ranks.
func runCalmGroup(seed int64, baseOf []int, body func(c *collective.Comm, baseOf []int) error) error {
	w := NewWorld(Config{Seed: seed})
	defer w.Close()
	return w.Run(func() error {
		net := w.View()
		defer net.Close()
		n := len(baseOf)
		table := ringTable()
		comms := make([]*collective.Comm, n)
		for r := 0; r < n; r++ {
			ep, err := net.Register(transport.Proc("R", r))
			if err != nil {
				return err
			}
			c, err := collective.New(transport.NewDispatcherClock(ep, w.Clock()), "R", r, n)
			if err != nil {
				return err
			}
			c.SetTimeout(2 * time.Second)
			c.SetTable(table)
			comms[r] = c
		}
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			go func(c *collective.Comm) { errs <- body(c, baseOf) }(comms[r])
		}
		for r := 0; r < n; r++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
}
