package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// printManifest prints BENCHMARK.json from the tables in metrics.go and
// workloads.go, so the file cannot drift from what the benchmark emits.
func printManifest(out io.Writer) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		fatal(err)
	}
}

// selfCheck runs two interleaved sets, A and B, of n untraced runs of every
// workload (run i of both sets uses seed i; which set goes first alternates,
// because a run is not indifferent to what ran before it), and prints for every end-to-end
// metric on every workload both medians, their gap, both inter-quartile
// ranges as a share of the median, and the bound. It fails when a gap
// exceeds half the bound or a range exceeds the bound.
func selfCheck(n int, seconds float64, out io.Writer) bool {
	if n < 2 {
		fatal(fmt.Errorf("-selfcheck needs at least 2 runs per set"))
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	ok := true
	for i := 1; i <= n; i++ {
		for _, w := range workloads {
			for k := range sets {
				s := (k + i) % 2
				text, err := child(w, int64(i), seconds, 0)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w\n%s", w.name, i, err, text))
				}
				correct, metrics, err := parseLine(text)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w.name, i, err))
				}
				if !correct {
					fmt.Fprintf(out, "%s seed %d set %c: incorrect\n", w.name, i, 'A'+s)
					ok = false
				}
				for name, v := range metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
	}
	fmt.Fprintf(out, "| workload | metric | median A | median B | gap | IQR A | IQR B | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			qa, qb := quartiles(a), quartiles(b)
			iqrA, iqrB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			gap := math.Abs(ma-mb) / ma
			verdict := "ok"
			if gap > d.bound/2 || max(iqrA, iqrB) > d.bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, d.name, ma, mb, 100*gap, 100*iqrA, 100*iqrB, 100*d.bound, verdict)
		}
	}
	return ok
}
