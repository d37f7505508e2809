package dst

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/collective"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Collective-chaos scenario: a group of raw collective.Comm ranks — no
// framework above them — runs forced-algorithm AllReduce, segmented Bcast and
// Gather rounds over the reliable layer while the world drops and delays
// messages underneath. Collective results are pure functions of the inputs
// (deterministic algorithms over exact dyadic values), so the outcome digest
// must not merely replay per seed: it must be identical across every seed and
// equal to a calm run's. Any divergence means a fault unmasked a protocol bug
// — a mis-matched round, a stale buffer, a segment stitched in wrong.

// CollectiveChaosConfig sizes one collective-chaos run.
type CollectiveChaosConfig struct {
	Seed          int64
	Ranks         int // default 5
	Rounds        int // default 6
	VecLen        int // AllReduce floats per rank (default 96)
	BcastBytes    int // Bcast payload size (default 1500; segmented at 256 B)
	DropPermille  int
	DelayPermille int
}

func (c *CollectiveChaosConfig) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 5
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.VecLen <= 0 {
		c.VecLen = 96
	}
	if c.BcastBytes <= 0 {
		c.BcastBytes = 1500
	}
}

// CollectiveChaosResult summarizes one run.
type CollectiveChaosResult struct {
	Seed   int64
	Digest uint64
	Ops    int // recorded outcomes folded into the digest
	Traffic
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// chaosVec is rank r's deterministic AllReduce contribution for one round:
// dyadic rationals, so sums are exact and every fold order bit-identical.
func chaosVec(rank, round, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((rank*131+round*29+i*17)%257-128) / 8.0
	}
	return v
}

// RunCollectiveChaos executes one seeded collective-chaos run and returns its
// outcome digest.
func RunCollectiveChaos(cfg CollectiveChaosConfig) (*CollectiveChaosResult, error) {
	cfg.defaults()
	w := NewWorld(Config{
		Seed:           cfg.Seed,
		DropPermille:   cfg.DropPermille,
		DelayPermille:  cfg.DelayPermille,
		MaxDelayQuanta: 8,
		Quantum:        time.Millisecond,
	})
	defer w.Close()
	out := newOutcomes()
	chk := NewChecker()

	err := w.Run(func() error {
		rel := transport.NewReliableNetwork(w.View(), transport.ReliableConfig{
			ResendInterval: 5 * time.Millisecond,
			Clock:          w.Clock(),
		})
		net := chk.Wrap(rel)
		defer net.Close()

		// Forcing is a table: a tiny segment size so the Bcast payload really
		// exercises the pipelined multi-segment path under loss, and one
		// table per AllReduce algorithm, swapped by every rank at the same
		// point of its sequence (the tables themselves are shared and never
		// written after this).
		ringTable := collective.DefaultTable()
		ringTable.BcastSegBytes = 0
		ringTable.BcastSegSize = 256
		ringTable.AllReduceRingBytes = 0
		rdTable := *ringTable
		rdTable.AllReduceRingBytes = math.MaxInt

		comms := make([]*collective.Comm, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			ep, err := net.Register(transport.Proc("C", r))
			if err != nil {
				return err
			}
			// The dispatcher deadline clock must be the virtual one, or every
			// blocked receive would hold a wall timer the driver cannot see.
			c, err := collective.New(transport.NewDispatcherClock(ep, w.Clock()), "C", r, cfg.Ranks)
			if err != nil {
				return err
			}
			c.SetTimeout(2 * time.Minute) // virtual; resends recover long before
			c.SetTable(ringTable)
			// Buffer reuse stays off: the reliable layer retains sent payloads
			// for resend, so recycling them is unsafe by contract.
			comms[r] = c
		}

		errs := make(chan error, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			go func(c *collective.Comm) {
				errs <- func() error {
					for k := 0; k < cfg.Rounds; k++ {
						// Phase 0/1: AllReduce under both algorithms; the ring
						// result must match recursive doubling bit for bit.
						in := chaosVec(c.Rank(), k, cfg.VecLen)
						ring, err := c.AllReduce(in, collective.Sum)
						if err != nil {
							return fmt.Errorf("round %d ring allreduce: %w", k, err)
						}
						c.SetTable(&rdTable)
						rd, err := c.AllReduce(in, collective.Sum)
						if err != nil {
							return fmt.Errorf("round %d rd allreduce: %w", k, err)
						}
						c.SetTable(ringTable)
						out.record(c.Rank(), 10*k+0, 0, hashBytes(wire.AppendFloat64s(nil, ring)))
						out.record(c.Rank(), 10*k+1, 0, hashBytes(wire.AppendFloat64s(nil, rd)))

						// Phase 2: segmented broadcast from a rotating root.
						root := k % cfg.Ranks
						var payload []byte
						if c.Rank() == root {
							payload = make([]byte, cfg.BcastBytes)
							for i := range payload {
								payload[i] = byte(i*31 + k*7)
							}
						}
						got, err := c.Bcast(root, payload)
						if err != nil {
							return fmt.Errorf("round %d bcast: %w", k, err)
						}
						out.record(c.Rank(), 10*k+2, 0, hashBytes(got))

						// Phase 3: gather to the same root.
						part := wire.AppendFloat64s(nil, chaosVec(c.Rank(), k+1000, 9))
						parts, err := c.Gather(root, part)
						if err != nil {
							return fmt.Errorf("round %d gather: %w", k, err)
						}
						if c.Rank() == root {
							out.record(c.Rank(), 10*k+3, 0, hashBytes(bytes.Join(parts, []byte{0xff})))
						}

						if err := c.Barrier(); err != nil {
							return fmt.Errorf("round %d barrier: %w", k, err)
						}
					}
					return nil
				}()
			}(comms[r])
		}
		for r := 0; r < cfg.Ranks; r++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dst: collective chaos seed %d: %w", cfg.Seed, err)
	}
	if err := chk.Err(); err != nil {
		return nil, err
	}
	return &CollectiveChaosResult{
		Seed:    cfg.Seed,
		Digest:  out.digest(),
		Ops:     out.total(),
		Traffic: w.traffic(),
	}, nil
}
