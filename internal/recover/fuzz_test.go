package recover

import (
	"bytes"
	"testing"

	"repro/internal/buffer"
)

// FuzzCheckpoint hardens the checkpoint codec against corrupt or hostile
// stores: Decode must never panic, and any checkpoint it accepts must
// re-encode to exactly the bytes it came from (a restore that silently
// alters state would defeat the byte-identical recovery guarantee). The
// codec checks every length before it allocates, so inputs need no size
// bound. The checked-in corpus holds gob checkpoints of older builds, which
// must be rejected.
func FuzzCheckpoint(f *testing.F) {
	ck := &Checkpoint{
		Program: "U", Epoch: 1, Seq: 20,
		Procs: []ProcState{{
			Rank: 0,
			Exports: map[string]buffer.ManagerState{
				"F.f>U.f": {
					Exports:  []float64{1, 2, 3.5},
					Entries:  []buffer.EntryState{{TS: 3.5, Data: []float64{9, 8, 7}, Sent: true}},
					Requests: []buffer.RequestState{{X: 3, Decided: true, MatchTS: 2}},
				},
				"F.g>U.g": {Finished: true},
			},
			Imports: map[string]ImportState{
				"F.f>U.f": {Issued: []float64{1, 2, 3}},
			},
		}},
	}
	enc, err := Encode(ck)
	if err != nil {
		f.Fatal(err)
	}
	// The canonical encoding, then every truncation of it, one byte shorter
	// each time.
	for n := len(enc); n >= 0; n-- {
		f.Add(enc[:n])
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := Encode(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("checkpoint changed across re-encode:\n%x\n%x", b, enc)
		}
	})
}
