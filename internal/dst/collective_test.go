package dst

import "testing"

// TestCollectiveChaosDeterministic replays the collective-chaos scenario:
// per seed the digest must reproduce exactly, and because collective results
// are pure functions of the inputs, every seed's digest — and the calm run's
// — must be the same value. Faults may cost retransmissions, never answers.
func TestCollectiveChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation scenario")
	}
	calm, err := RunCollectiveChaos(CollectiveChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calm.Dropped != 0 || calm.Delayed != 0 {
		t.Fatalf("calm run saw faults: %+v", calm)
	}
	t.Logf("calm: digest %016x over %d outcomes (%d delivered)", calm.Digest, calm.Ops, calm.Delivered)
	if calm.Digest != goldenCollectiveChaos || calm.Ops != 96 {
		t.Fatalf("calm digest %016x over %d outcomes, golden %016x over 96", calm.Digest, calm.Ops, uint64(goldenCollectiveChaos))
	}

	for _, seed := range []int64{1, 7, 4242} {
		cfg := CollectiveChaosConfig{
			Seed:          seed,
			DropPermille:  30,
			DelayPermille: 150,
		}
		a, err := RunCollectiveChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunCollectiveChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: digest %016x, %d outcomes, delivered %d dropped %d delayed %d",
			seed, a.Digest, a.Ops, a.Delivered, a.Dropped, a.Delayed)
		if a.Digest != b.Digest || a.Ops != b.Ops {
			t.Fatalf("seed %d did not replay: %016x/%d vs %016x/%d", seed, a.Digest, a.Ops, b.Digest, b.Ops)
		}
		if a.Dropped == 0 && a.Delayed == 0 {
			t.Fatalf("seed %d drew no faults; scenario is not exercising chaos", seed)
		}
		if a.Digest != calm.Digest {
			t.Fatalf("seed %d digest %016x diverged from calm %016x: faults changed collective results",
				seed, a.Digest, calm.Digest)
		}
	}
}
