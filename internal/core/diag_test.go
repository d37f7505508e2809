package core

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obsv/diag"
)

// TestDiagWiring runs a coupled pair with Options.Diag on: the exporter's
// collectives must feed the straggler board, /diag/stragglers must serve it,
// /statusz must grow a diag: section, and DumpFlight must produce decodable
// flight dumps for both programs.
func TestDiagWiring(t *testing.T) {
	f := buildCoupling(t, Options{Diag: true, FlightDir: t.TempDir()}, 4, 2, 8, "REGL 1")
	const slow = 2
	prog := f.MustProgram("E")
	ring := collective.DefaultTable()
	ring.AllReduceRingBytes = 0 // every AllReduce takes the ring
	runProcs(t, prog, func(p *Process) error {
		p.Comm().SetTable(ring)
		for i := 0; i < 20; i++ {
			if p.Rank() == slow {
				time.Sleep(500 * time.Microsecond)
			}
			if _, err := p.Comm().AllReduce([]float64{1}, collective.Sum); err != nil {
				return err
			}
		}
		return nil
	})

	s := prog.board.Snapshot()
	if s.Ops == 0 || s.Attributed() == 0 {
		t.Fatalf("board empty after 20 collectives: %+v", s)
	}
	if !raceDetectorOn() {
		if top := s.Top(1); len(top) == 0 || top[0].Rank != slow {
			t.Fatalf("top straggler %+v, want rank %d", top, slow)
		}
	}

	// /diag/stragglers is mounted on the observer and serves both programs.
	h := f.Obsv().HandlerFor("/diag/stragglers")
	if h == nil {
		t.Fatal("/diag/stragglers not mounted")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/diag/stragglers", nil))
	var payload struct {
		Programs []struct {
			Program string `json:"program"`
			Ops     uint64 `json:"ops"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(payload.Programs) != 2 || payload.Programs[0].Program != "E" || payload.Programs[0].Ops == 0 {
		t.Fatalf("payload: %s", rec.Body.String())
	}

	// /statusz gains the diag: block.
	var status strings.Builder
	f.writeStatus(&status)
	if !strings.Contains(status.String(), "diag:") || !strings.Contains(status.String(), "straggler rank") {
		t.Fatalf("statusz missing diag section:\n%s", status.String())
	}

	// DumpFlight writes one decodable dump per program.
	paths, err := f.DumpFlight("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("DumpFlight wrote %d files, want 2", len(paths))
	}
	d, err := diag.ReadDump(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	coll := 0
	for _, e := range d.Events {
		if e.Kind == diag.KindCollective {
			coll++
		}
	}
	if d.Program != "E" || coll == 0 {
		t.Fatalf("dump %s: program=%q collective events=%d", paths[0], d.Program, coll)
	}
}

// TestDiagOffNoTrailer pins the default: without Options.Diag no board, no
// recorder, no /diag endpoint — and the collective wire format is unchanged.
func TestDiagOffNoTrailer(t *testing.T) {
	f := buildCoupling(t, Options{}, 2, 2, 4, "REGL 1")
	prog := f.MustProgram("E")
	if prog.board != nil || prog.flight != nil {
		t.Fatal("diag state allocated without Options.Diag")
	}
	if f.Obsv().HandlerFor("/diag/stragglers") != nil {
		t.Fatal("/diag/stragglers mounted without Options.Diag")
	}
	if paths, err := f.DumpFlight("x"); err != nil || paths != nil {
		t.Fatalf("DumpFlight = %v, %v; want nil, nil", paths, err)
	}
}
