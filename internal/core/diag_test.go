package core

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obsv"
)

// TestDiagWiring runs a coupled pair with Options.Diag on: the exporter's
// collectives must feed the straggler board, /diag/stragglers must serve it,
// /statusz must grow a diag: section, and DumpFlight must write a Chrome
// trace holding the collectives as flt.collective spans on E's lanes.
func TestDiagWiring(t *testing.T) {
	f := buildCoupling(t, Options{Diag: t.TempDir()}, 4, 2, 8, "REGL 1")
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

	// DumpFlight writes one trace file with every lane of both programs.
	path, err := f.DumpFlight("test")
	if err != nil {
		t.Fatal(err)
	}
	d, err := obsv.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	coll := map[string]int{}
	for _, sp := range d.Spans {
		if sp.Name == "flt.collective" {
			coll[sp.Lane]++
		}
	}
	for r := 0; r < prog.Procs(); r++ {
		if lane := fmt.Sprintf("E:%d", r); coll[lane] < 20 {
			t.Fatalf("dump %s (%q): %d flt.collective spans on lane %s, want >= 20 (all: %v)",
				path, d.Reason, coll[lane], lane, coll)
		}
	}
}

// TestDiagOffNoTrailer pins the default: without Options.Diag no board, no
// tracer, no /diag endpoint — and the collective wire format is unchanged.
func TestDiagOffNoTrailer(t *testing.T) {
	f := buildCoupling(t, Options{}, 2, 2, 4, "REGL 1")
	prog := f.MustProgram("E")
	if prog.board != nil || f.tracer != nil {
		t.Fatal("diag state allocated without Options.Diag")
	}
	if f.Obsv().HandlerFor("/diag/stragglers") != nil {
		t.Fatal("/diag/stragglers mounted without Options.Diag")
	}
	if path, err := f.DumpFlight("x"); err != nil || path != "" {
		t.Fatalf("DumpFlight = %q, %v; want \"\", nil", path, err)
	}
}
