package dst

import (
	"fmt"
	"testing"
)

// TestRankFailureDeterministic replays the rank-failure scenario: for every
// seed the survivors must agree on exactly the dead rank, no survivor may
// hang, and the outcome digest must be identical across seeds, across
// replays, and equal to the composed fault-free reference (healthy full-group
// prefix + survivor-subset remainder). Recovery may cost virtual time, never
// answers.
func TestRankFailureDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation scenario")
	}
	cfg := RankFailureConfig{Seed: 1}
	ref, err := RunRankFailureReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reference: digest %016x over %d outcomes", ref.Digest, ref.Ops)
	if ref.Digest != goldenRankFailure || ref.Ops != 37 {
		t.Fatalf("reference digest %016x over %d outcomes, golden %016x over 37", ref.Digest, ref.Ops, uint64(goldenRankFailure))
	}

	for _, seed := range []int64{1, 7, 4242} {
		cfg := RankFailureConfig{Seed: seed, DelayPermille: 150}
		a, err := RunRankFailure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRankFailure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: digest %016x, %d outcomes, agreed %v, delivered %d delayed %d vanished %d",
			seed, a.Digest, a.Ops, a.Agreed, a.Delivered, a.Delayed, a.Vanished)
		if fmt.Sprint(a.Agreed) != fmt.Sprint([]int{2}) {
			t.Fatalf("seed %d agreed %v, want [2]", seed, a.Agreed)
		}
		if a.Digest != b.Digest || a.Ops != b.Ops {
			t.Fatalf("seed %d did not replay: %016x/%d vs %016x/%d", seed, a.Digest, a.Ops, b.Digest, b.Ops)
		}
		if a.Digest != ref.Digest || a.Ops != ref.Ops {
			t.Fatalf("seed %d digest %016x/%d diverged from fault-free reference %016x/%d: the crash changed survivor results",
				seed, a.Digest, a.Ops, ref.Digest, ref.Ops)
		}
	}
}

// TestRankFailureShapes varies the group size and dead rank: agreement and
// shrink must hold whoever dies, including the base rank whose death re-ranks
// every survivor.
func TestRankFailureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation scenario")
	}
	for _, tc := range []struct{ ranks, dead int }{
		{3, 1},
		{4, 3},
		{6, 1},
	} {
		cfg := RankFailureConfig{Seed: 11, Ranks: tc.ranks, DeadRank: tc.dead, PreRounds: 1, PostRounds: 2}
		a, err := RunRankFailure(cfg)
		if err != nil {
			t.Fatalf("ranks=%d dead=%d: %v", tc.ranks, tc.dead, err)
		}
		ref, err := RunRankFailureReference(cfg)
		if err != nil {
			t.Fatalf("ranks=%d dead=%d reference: %v", tc.ranks, tc.dead, err)
		}
		if fmt.Sprint(a.Agreed) != fmt.Sprint([]int{tc.dead}) {
			t.Fatalf("ranks=%d: agreed %v, want [%d]", tc.ranks, a.Agreed, tc.dead)
		}
		if a.Digest != ref.Digest || a.Ops != ref.Ops {
			t.Fatalf("ranks=%d dead=%d: digest %016x/%d != reference %016x/%d",
				tc.ranks, tc.dead, a.Digest, a.Ops, ref.Digest, ref.Ops)
		}
	}
}
