package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/transport"
)

// tiny shrinks every epoch about forty-fold, so the whole file runs in a few
// seconds.
var tiny = params{seed: 7, scale: 40}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func emitted(res *result) []string {
	var out []string
	for name := range res.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Every workload emits every declared metric of the pass and no other, the
// result line parses back, and nothing fails on generated inputs.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.', '-'", d.name)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain, err := runUntraced(w, tiny, 0.2, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, tiny, filepath.Join(t.TempDir(), "trace.json"), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				res  *result
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if got, want := emitted(c.res), names(c.defs); !reflect.DeepEqual(got, want) {
					t.Errorf("emitted %v, declared %v", got, want)
				}
				if !c.res.correct || c.res.failed != 0 || c.res.attempted == 0 {
					t.Errorf("correct %v, %d failed of %d", c.res.correct, c.res.failed, c.res.attempted)
				}
				correct, metrics, err := parseLine("report\n" + c.res.line())
				if err != nil || !correct || len(metrics) != len(c.defs) {
					t.Errorf("result line does not parse back: %v", err)
				}
			}
			for _, d := range endToEnd {
				if v := plain.metrics[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.name, v)
				}
			}
			// The layers a workload leaves idle read absent, the ones it
			// uses do not.
			coupled := w.shape != nil
			for name, v := range traced.metrics {
				switch {
				case name == "run.steps_per_s":
					// Not emitted where sleeps pace the loop.
					if (v == absent) != (w.slowSleep > 0) {
						t.Errorf("%s = %v on %s", name, v, w.name)
					}
				case strings.HasPrefix(name, "collective."):
					if (v == absent) == !coupled {
						t.Errorf("%s = %v on %s", name, v, w.name)
					}
				case strings.HasPrefix(name, "buffer."), strings.HasPrefix(name, "match."), strings.HasPrefix(name, "decomp."):
					if (v == absent) == coupled {
						t.Errorf("%s = %v on %s", name, v, w.name)
					}
				}
			}
		})
	}
}

// BENCHMARK.json at the root is what -manifest prints.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var printed strings.Builder
	printManifest(&printed)
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(printed.String()), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json differs from `bash bench/run.sh -manifest`")
	}
}

// A corrupted result trips the check and is counted as a failed call.
func TestCorruptionIsCounted(t *testing.T) {
	for _, w := range workloads {
		p := tiny
		p.corruptEvery = 5
		ep, err := oneEpoch(w, p, p.stepsOf(w), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := ep.checks.Load() / 5; ep.failed.Load() != want || want == 0 {
			t.Errorf("%s: %d results checked, every 5th corrupted, %d counted as failed", w.name, ep.checks.Load(), ep.failed.Load())
		}
		res := &result{}
		res.tally(w, p, []*epoch{ep}, io.Discard)
		if res.correct || res.failed != ep.failed.Load() {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d", w.name, res.correct, res.failed)
		}
	}
}

// stream_tcp's window is used and never lets an exporter lead by more than 4.
func TestStreamWindowBoundsLead(t *testing.T) {
	w := findWorkload("stream_tcp")
	p := params{seed: 3, scale: 8}
	ep, err := oneEpoch(w, p, p.stepsOf(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.errs) > 0 || ep.failed.Load() > 0 {
		t.Fatalf("epoch failed: %v", ep.errs)
	}
	if ep.maxLead < 2 || ep.maxLead > w.lead {
		t.Errorf("largest lead %d, want within [2, %d]", ep.maxLead, w.lead)
	}
}

// The Network decorator keeps each directed pair in order, reports one send
// and one hop per message, and leaves no goroutine behind when closed.
func TestTapKeepsPairOrderAndClosesCleanly(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const senders, each = 3, 400
	tr := &tracer{}
	net := tapped(transport.NewMemNetwork(), tr)
	sink, err := net.Register(transport.Proc("sink", 0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Register(transport.Proc("src", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(transport.Message{Kind: transport.KindData, Dst: sink.Addr(), Payload: []byte{byte(i), byte(i >> 8)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	next := map[transport.Addr]int{}
	for i := 0; i < senders*each; i++ {
		m, err := sink.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := int(m.Payload[0]) | int(m.Payload[1])<<8; got != next[m.Src] || m.Seq != uint64(got+1) {
			t.Fatalf("from %v: message %d with seq %d arrived when %d was due", m.Src, got, m.Seq, next[m.Src])
		}
		next[m.Src]++
	}
	wg.Wait()
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Recv(); err == nil {
		t.Error("Recv on a closed network returned a message")
	}
	msgs, _ := tr.traffic()
	hops := len(tr.durations(func(s *span) bool { return s.name == spanHop }))
	if msgs[classData] != senders*each || hops != senders*each {
		t.Errorf("%d sends and %d hops recorded for %d messages", msgs[classData], hops, senders*each)
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{9, 1, 4, 7, 2, 8, 3, 10, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
