package recover

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/wire"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Program: "U",
		Epoch:   2,
		Seq:     40,
		Procs: []ProcState{
			{
				Rank: 0,
				Exports: map[string]buffer.ManagerState{
					"U>V": {
						Exports:  []float64{1, 2, 3},
						Entries:  []buffer.EntryState{{TS: 3, Data: []float64{1.5, 2.5}, Sent: true}},
						Requests: []buffer.RequestState{{X: 2.6, Decided: true, MatchTS: 2, CandTS: math.NaN()}},
					},
				},
				Imports: map[string]ImportState{"F>U": {Issued: []float64{19.6, 39.6}}},
			},
			{Rank: 1, Imports: map[string]ImportState{"F>U": {Issued: []float64{19.6, 39.6}}}},
		},
	}
}

func checkRoundTrip(t *testing.T, s Store) {
	t.Helper()
	if ck, err := s.Load("U"); err != nil || ck != nil {
		t.Fatalf("empty store Load = (%v, %v), want (nil, nil)", ck, err)
	}
	want := sampleCheckpoint()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later cut: Load must return the latest.
	want.Seq = 60
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("U")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 60 || got.Epoch != 2 || got.Program != "U" {
		t.Fatalf("Load header = %+v", got)
	}
	// NaN CandTS breaks DeepEqual; normalize it before comparing.
	gr := &got.Procs[0].Exports["U>V"].Requests[0].CandTS
	if !math.IsNaN(*gr) {
		t.Fatalf("NaN candidate did not round-trip: %g", *gr)
	}
	*gr = 0
	wr := &want.Procs[0].Exports["U>V"].Requests[0].CandTS
	*wr = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestMemStoreRoundTrip(t *testing.T) { checkRoundTrip(t, NewMemStore()) }

func TestDirStoreRoundTrip(t *testing.T) {
	s, err := NewDirStore(t.TempDir() + "/ckpt")
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, s)
}

// TestMemStoreIsolation checks a loaded checkpoint shares no memory with the
// saved one (stores keep encoded bytes).
func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	ck := sampleCheckpoint()
	if err := s.Save(ck); err != nil {
		t.Fatal(err)
	}
	ck.Procs[0].Imports["F>U"].Issued[0] = -1 // mutate after save
	got, err := s.Load("U")
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs[0].Imports["F>U"].Issued[0] != 19.6 {
		t.Fatal("loaded checkpoint aliases the saver's memory")
	}
}

// TestDecodeRejects: a checkpoint from an older build (gob), every
// truncation of a valid one, and one whose connection keys are out of
// order or repeated all fail Decode.
func TestDecodeRejects(t *testing.T) {
	old, err := wire.Marshal(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(old); err == nil || !strings.Contains(err.Error(), "format") {
		t.Errorf("gob checkpoint: %v, want an error naming the format", err)
	}
	enc, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for n := range enc {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", n, len(enc))
		}
	}
	for name, conns := range map[string][]string{"unsorted": {"b>c", "a>c"}, "repeated": {"a>c", "a>c"}} {
		w := ckptWire{Program: "U", Procs: []procWire{{}}}
		for _, k := range conns {
			w.Procs[0].Imports = append(w.Procs[0].Imports, keyed[ImportState]{Conn: k})
		}
		_, err := Decode(append([]byte{format}, wire.Encode(w.fields)...))
		if err == nil || !strings.Contains(err.Error(), `"a>c"`) {
			t.Errorf("%s connection keys: %v, want an error naming the key", name, err)
		}
	}
}
