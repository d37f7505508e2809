package collective

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obsv"
	"repro/internal/transport"
)

// forcedTable is how a test forces an algorithm: under it every operation
// that implements a runs it whatever the input (a's thresholds are 0) and
// every other operation takes its reference path (all other thresholds are
// math.MaxInt: recursive doubling, Linear, single-segment Binomial).
// BcastSegSize stays at its default.
func forcedTable(a Algo) *Table {
	t := &Table{
		AllReduceRingBytes: math.MaxInt,
		BcastSegBytes:      math.MaxInt,
		BcastSegSize:       DefaultTable().BcastSegSize,
		AllGatherRingRanks: math.MaxInt,
	}
	switch a {
	case Ring:
		t.AllReduceRingBytes, t.AllGatherRingRanks = 0, 0
	case BinomialSeg:
		t.BcastSegBytes = 0
	}
	return t
}

// reduceScatter runs the ring AllReduce's reduce-scatter phase alone, as one
// operation every rank enters, and returns this rank's fully reduced block.
func reduceScatter(c *Comm, local []float64, op Op) ([]float64, error) {
	acc := append([]float64(nil), local...)
	algo := Ring
	err := c.run(opAllReduce, &algo, func(seq uint32) error {
		return c.ringReduceScatterPhase(seq, acc, op)
	})
	lo, hi := blockRange(len(acc), c.size, c.rank)
	return acc[lo:hi], err
}

// prod is a caller-supplied operator whose result depends on every factor's
// mantissa, so a fold that drops or repeats a contribution shows.
func prod(acc, src []float64) {
	for i := range acc {
		acc[i] *= src[i]
	}
}

// force installs forcedTable(a) and returns c, so a forced call reads
// c.force(Ring).AllReduce(...). Every rank of a group must force at the same
// point of its sequence, as with any SetTable.
func (c *Comm) force(a Algo) *Comm {
	c.SetTable(forcedTable(a))
	return c
}

// exactVec returns a vector of dyadic rationals whose sums stay exact in
// float64 under any combining order, so sum/max/min must be bit-identical
// across algorithms.
func exactVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Round(rng.Float64()*512-256) / 8
	}
	return v
}

// pow2Vec returns values from {±0.5, ±1, ±2}: their products are powers of
// two, exact under any combining order (sums of dyadics are not enough for
// prod, whose result mantissa grows with every factor).
func pow2Vec(rng *rand.Rand, n int) []float64 {
	choices := []float64{0.5, 1, 2, -0.5, -1, -2}
	v := make([]float64, n)
	for i := range v {
		v[i] = choices[rng.Intn(len(choices))]
	}
	return v
}

var allOps = []struct {
	name string
	op   Op
}{{"sum", Sum}, {"prod", prod}, {"max", Max}, {"min", Min}}

// TestAllReduceAlgosBitIdentical pits the ring (Rabenseifner) AllReduce
// against recursive doubling and the sequential oracle across group sizes
// (including non-powers-of-two), vector lengths (0, 1, odd, smaller than the
// group, large) and all operators, on a transport whose Comms recycle their
// wire buffers (reuse=true: MemNetwork) and on one whose Comms may not
// (reuse=false: ReliableNetwork over it). The ring's per-block fold is a
// single chain, so with exact-in-float inputs all results must be bitwise
// identical on every rank.
func TestAllReduceAlgosBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 16} {
		for _, vecLen := range []int{0, 1, 3, 5, 64, 257} {
			for _, reuse := range []bool{false, true} {
				n, vecLen, reuse := n, vecLen, reuse
				t.Run(fmt.Sprintf("n=%d/len=%d/reuse=%v", n, vecLen, reuse), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n*1000 + vecLen)))
					contribs := make([][]float64, n)
					prodContribs := make([][]float64, n)
					for r := range contribs {
						contribs[r] = exactVec(rng, vecLen)
						prodContribs[r] = pow2Vec(rng, vecLen)
					}
					for _, tc := range allOps {
						in := contribs
						if tc.name == "prod" {
							in = prodContribs
						}
						contribs := in
						want := oracleFold(contribs, tc.op)
						var net transport.Network = transport.NewMemNetwork()
						if !reuse {
							net = transport.NewReliableNetwork(net, transport.ReliableConfig{})
						}
						runGroupOn(t, net, n, func(c *Comm) error {
							if owned := c.pool != nil; owned != reuse {
								return fmt.Errorf("Comm owns its wire buffers: %v, want %v", owned, reuse)
							}
							rd, err := c.force(RecursiveDoubling).AllReduce(contribs[c.Rank()], tc.op)
							if err != nil {
								return err
							}
							ring, err := c.force(Ring).AllReduce(contribs[c.Rank()], tc.op)
							if err != nil {
								return err
							}
							for i := range want {
								if rd[i] != want[i] || ring[i] != want[i] {
									return fmt.Errorf("%s rank %d elem %d: rd=%v ring=%v want %v",
										tc.name, c.Rank(), i, rd[i], ring[i], want[i])
								}
							}
							return nil
						})
					}
				})
			}
		}
	}
}

// TestReduceScatterRingMatchesComposed checks the ring reduce-scatter phase
// against the recursive-doubling AllReduce and the sequential oracle: the
// block each rank owns after the phase is bit-identical to that block of
// the full reduction.
func TestReduceScatterRingMatchesComposed(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, per := range []int{1, 3, 16} {
			n, per := n, per
			t.Run(fmt.Sprintf("n=%d/per=%d", n, per), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*n + per)))
				contribs := make([][]float64, n)
				for r := range contribs {
					contribs[r] = exactVec(rng, n*per)
				}
				full := oracleFold(contribs, Sum)
				runGroup(t, n, func(c *Comm) error {
					want := full[c.Rank()*per : (c.Rank()+1)*per]
					ring, err := reduceScatter(c, contribs[c.Rank()], Sum)
					if err != nil {
						return err
					}
					rd, err := c.force(RecursiveDoubling).AllReduce(contribs[c.Rank()], Sum)
					if err != nil {
						return err
					}
					rd = rd[c.Rank()*per : (c.Rank()+1)*per]
					if len(ring) != per {
						return fmt.Errorf("rank %d: block of %d, want %d", c.Rank(), len(ring), per)
					}
					for i := range want {
						if ring[i] != want[i] || rd[i] != want[i] {
							return fmt.Errorf("rank %d elem %d: ring=%v rd=%v want %v",
								c.Rank(), i, ring[i], rd[i], want[i])
						}
					}
					return nil
				})
			})
		}
	}
}

// TestBcastSegmented drives the pipelined broadcast across segment
// geometries (payload exactly divisible, with remainder, smaller than one
// segment, empty) and roots, against the plain binomial result.
func TestBcastSegmented(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16} {
		for _, payloadLen := range []int{0, 1, 63, 64, 65, 1000} {
			n, payloadLen := n, payloadLen
			t.Run(fmt.Sprintf("n=%d/len=%d", n, payloadLen), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*10000 + payloadLen)))
				want := make([]byte, payloadLen)
				rng.Read(want)
				root := n / 2
				runGroup(t, n, func(c *Comm) error {
					seg := forcedTable(BinomialSeg)
					seg.BcastSegSize = 64
					c.SetTable(seg)
					var in []byte
					if c.Rank() == root {
						in = want
					}
					out, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(out, want) {
						return fmt.Errorf("rank %d: got %d bytes, want %d", c.Rank(), len(out), len(want))
					}
					plain, err := c.force(Binomial).Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(plain, want) {
						return fmt.Errorf("rank %d: binomial got %d bytes", c.Rank(), len(plain))
					}
					return nil
				})
			})
		}
	}
}

// TestAllGatherAllToAllAlgos checks ring AllGather against its linear
// reference, and both against Gather at every root.
func TestAllGatherAllToAllAlgos(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 * n)))
			own := make([][]byte, n) // allgather contribution per rank
			for r := range own {
				own[r] = make([]byte, rng.Intn(30))
				rng.Read(own[r])
			}
			runGroup(t, n, func(c *Comm) error {
				ring, err := c.force(Ring).AllGather(own[c.Rank()])
				if err != nil {
					return err
				}
				lin, err := c.force(Linear).AllGather(own[c.Rank()])
				if err != nil {
					return err
				}
				for r := 0; r < n; r++ {
					if !bytes.Equal(ring[r], own[r]) || !bytes.Equal(lin[r], own[r]) {
						return fmt.Errorf("rank %d allgather slot %d mismatch", c.Rank(), r)
					}
				}
				for root := 0; root < n; root++ {
					g, err := c.Gather(root, own[c.Rank()])
					if err != nil {
						return err
					}
					for r := 0; r < n && c.Rank() == root; r++ {
						if !bytes.Equal(g[r], own[r]) {
							return fmt.Errorf("root %d gather slot %d mismatch", root, r)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestNoAliasContracts pins the ownership contract: slices returned by
// collectives alias neither the caller's inputs nor a wire buffer, so
// mutating an input after the call cannot corrupt results and mutating a
// result cannot corrupt a later operation's.
func TestNoAliasContracts(t *testing.T) {
	const n = 4
	runGroup(t, n, func(c *Comm) error {
		// Two rounds: the first ends by scribbling over every result, which
		// must change nothing the second one delivers on any rank.
		for round := 0; round < 2; round++ {
			part := []byte{byte(c.Rank()), 1, 2, 3}
			all, err := c.Gather(0, part)
			if err != nil {
				return err
			}
			part[0] = 0xFF // mutate after the call
			for r := 0; c.Rank() == 0 && r < n; r++ {
				if !bytes.Equal(all[r], []byte{byte(r), 1, 2, 3}) {
					return fmt.Errorf("round %d: gather slot %d = %v (root slot aliases caller part, or a scribbled result came back)", round, r, all[r])
				}
			}

			mine := []byte{9, byte(c.Rank())}
			ag, err := c.AllGather(mine)
			if err != nil {
				return err
			}
			mine[0] = 0
			for r := range ag {
				if !bytes.Equal(ag[r], []byte{9, byte(r)}) {
					return fmt.Errorf("round %d: allgather entry %d = %v (self-entry aliases caller part, or a scribbled result came back)", round, r, ag[r])
				}
			}

			bc, err := c.Bcast(2, []byte{4, 5, 6})
			if err != nil {
				return err
			}
			if !bytes.Equal(bc, []byte{4, 5, 6}) {
				return fmt.Errorf("round %d: bcast = %v", round, bc)
			}

			local := []float64{float64(c.Rank()), 1}
			res, err := c.AllReduce(local, Sum)
			if err != nil {
				return err
			}
			local[1] = 99
			if res[1] != n {
				return fmt.Errorf("round %d: allreduce result aliases local input", round)
			}

			if c.Rank() != 2 {
				all = append(all, bc) // rank 2's is its own input
			}
			for _, p := range append(all, ag...) {
				for i := range p {
					p[i] = 0x5A
				}
			}
			res[0], res[1] = -1, -1
		}
		return nil
	})
}

// TestDispatchByTable puts one input on each side of every Table threshold
// and reads the choice back through the per-(op, algo) histogram counts, so
// the instrument label is proven to be the algorithm that ran — on every
// rank, including Bcast's receivers, which learn it from segment 0. The
// group-size threshold takes two group sizes; the byte thresholds two inputs.
func TestDispatchByTable(t *testing.T) {
	tab := Table{
		AllReduceRingBytes: 8 * 16,
		BcastSegBytes:      128,
		BcastSegSize:       256,
		AllGatherRingRanks: 4,
	}
	for _, n := range []int{3, 4} {
		reg := obsv.NewRegistry()
		runGroup(t, n, func(c *Comm) error {
			c.SetInstruments(NewInstruments(reg, "G"))
			// One table shared by the ranks: a Comm only reads its table.
			c.SetTable(&tab)
			for _, floats := range []int{4, 64} { // 32 B rd, 512 B ring
				if _, err := c.AllReduce(make([]float64, floats), Sum); err != nil {
					return err
				}
			}
			// Below BcastSegBytes; past it but within one BcastSegSize
			// segment; past both.
			for _, size := range []int{64, 200, 1000} {
				if _, err := c.Bcast(1, make([]byte, size)); err != nil {
					return err
				}
			}
			_, err := c.AllGather([]byte{1})
			return err
		})
		want := map[string]uint64{
			"allreduce.rd": 1, "allreduce.ring": 1,
			"bcast.binomial": 2, "bcast.binomial-seg": 1,
		}
		if n < 4 {
			want["allgather.linear"] = 1
		} else {
			want["allgather.ring"] = 1
		}
		for _, p := range opAlgoPairs {
			name := opTags[p.op] + "." + p.algo.String()
			got := reg.Histogram("collective."+name+".ns", obsv.L("program", "G")).Count()
			if got != want[name]*uint64(n) {
				t.Errorf("n=%d %s: %d observations, want %d", n, name, got, want[name]*uint64(n))
			}
		}
	}
}

// TestMixedSequenceForcedAlgos interleaves every operation with forced
// non-default algorithms to shake out header collisions between rounds of
// concurrent in-flight operations.
func TestMixedSequenceForcedAlgos(t *testing.T) {
	const n = 8
	runGroup(t, n, func(c *Comm) error {
		for i := 0; i < 4; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			vec := []float64{float64(c.Rank()), float64(i), 1}
			ring, err := c.force(Ring).AllReduce(vec, Sum)
			if err != nil {
				return err
			}
			if ring[2] != n {
				return fmt.Errorf("iter %d: ring allreduce %v", i, ring)
			}
			out, err := c.force(BinomialSeg).Bcast(i%n, bytes.Repeat([]byte{byte(i)}, 100))
			if err != nil {
				return err
			}
			if len(out) != 100 || out[99] != byte(i) {
				return fmt.Errorf("iter %d: bcast %d bytes", i, len(out))
			}
			g, err := c.Gather(i%n, []byte{byte(c.Rank())})
			if err != nil {
				return err
			}
			if c.Rank() == i%n && len(g) != n {
				return fmt.Errorf("iter %d: gather %d slots", i, len(g))
			}
			rs, err := reduceScatter(c, make([]float64, n), Sum)
			if err != nil {
				return err
			}
			if len(rs) != 1 {
				return fmt.Errorf("iter %d: reduce-scatter block %d", i, len(rs))
			}
		}
		return nil
	})
}
