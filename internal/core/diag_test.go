package core

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// TestDiagWiring runs a coupled pair with Options.Diag on and one exporter
// rank slowed: the exporter rep's votes must name that rank as the top
// straggler in >= 95% of the attributed requests, /diag/stragglers must serve
// the board, /statusz must grow a diag: section with each exporter process's
// buffering cost, and DumpFlight must write a Chrome trace holding every
// lane of E.
func TestDiagWiring(t *testing.T) {
	f := buildCoupling(t, Options{Diag: t.TempDir(), BuddyHelp: true}, 4, 2, 8, "REGL 0.5")
	const slow, steps = 2, 20
	exp, imp := f.MustProgram("E"), f.MustProgram("I")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProcs(t, exp, func(p *Process) error {
			block, err := p.Block("d")
			if err != nil {
				return err
			}
			for k := 1; k <= steps+5; k++ {
				if p.Rank() == slow {
					time.Sleep(time.Millisecond)
				}
				if err := p.Export("d", float64(k), fillBlock(block, float64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	runProcs(t, imp, func(p *Process) error {
		block, err := p.Block("d")
		if err != nil {
			return err
		}
		dst := make([]float64, block.Area())
		for k := 1; k <= steps; k++ {
			if _, err := p.Import("d", float64(k), dst); err != nil {
				return err
			}
		}
		return nil
	})
	wg.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}

	s := exp.board.Snapshot()
	if s.Ops != steps || s.Attributed() == 0 {
		t.Fatalf("board after %d answered requests: %+v", steps, s)
	}
	// The race detector slows every rank by milliseconds, drowning the 1ms
	// signal; only assert attribution accuracy without it.
	if !raceDetectorOn() {
		if f := s.Fraction(slow); f < 0.95 {
			t.Fatalf("slow rank blamed in %.1f%% of attributed requests, want >= 95%%\n%+v", 100*f, s)
		}
		if top := s.Top(1); len(top) == 0 || top[0].Rank != slow {
			t.Fatalf("top straggler %+v, want rank %d", top, slow)
		}
	}
	if imp.board.Snapshot().Ops != 0 {
		t.Fatalf("importer board noted requests: %+v", imp.board.Snapshot())
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

	// /statusz gains the diag: block, with one waste line per exporter
	// process.
	var status strings.Builder
	f.writeStatus(&status)
	for _, want := range []string{"diag:", "straggler rank", "rank 0: T_ub=", "rank 3: T_ub=", " memcpys=", " skipped="} {
		if !strings.Contains(status.String(), want) {
			t.Fatalf("statusz missing %q:\n%s", want, status.String())
		}
	}
	if !raceDetectorOn() && !regexp.MustCompile(fmt.Sprintf(`(?m)^    rank %d: T_ub=.* <- p_s$`, slow)).MatchString(status.String()) {
		t.Fatalf("statusz does not mark rank %d:\n%s", slow, status.String())
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
	lanes := map[string]int{}
	for _, sp := range d.Spans {
		if sp.Name == "flt.collective" {
			t.Fatalf("dump %s holds a collective attribution span: %+v", path, sp)
		}
		lanes[sp.Lane]++
	}
	for r := 0; r < exp.Procs(); r++ {
		if lane := fmt.Sprintf("E:%d", r); lanes[lane] == 0 {
			t.Fatalf("dump %s (%q): no spans on lane %s (all: %v)", path, d.Reason, lane, lanes)
		}
	}
}

// TestDiagOffNoTrailer pins the default: without Options.Diag no board, no
// tracer, no /diag endpoint and no flight dump.
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
