// Command bench is the repository's one benchmark: four workloads over the
// coupling framework, paper-level end-to-end metrics from an untraced pass
// and per-layer metrics from a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runSeconds is how long one run measures; BENCHMARK.json carries the same
// number and the driver passes it as --seconds.
const runSeconds = 26

func main() {
	name := flag.String("workload", "", "run this workload only (default: all four, each pass in a fresh child process)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs: field contents, timestamp phases, Bcast root order")
	seconds := flag.Float64("seconds", runSeconds, "length of an untraced run: each workload's fixed number of timed epochs is scaled by seconds/26")
	trace := flag.Int("trace", 0, "1: the traced pass (per-layer metrics); 0: the untraced pass (end-to-end metrics)")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N runs of every workload and compare them")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *manifest:
		printManifest(os.Stdout)
	case *selfcheck > 0:
		if !selfCheck(*selfcheck, *seconds, os.Stdout) {
			os.Exit(1)
		}
	case *name == "":
		if !runAll(*seed, *seconds) {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		p := params{seed: *seed, scale: 1}
		var res *result
		var err error
		if *trace == 0 {
			res, err = runUntraced(w, p, *seconds, os.Stdout)
		} else {
			res, err = runTraced(w, p, traceBesideExecutable(w), os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.line())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// traceBesideExecutable is where the traced pass writes its Chrome trace.
func traceBesideExecutable(w *workload) string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	return filepath.Join(filepath.Dir(exe), "trace_"+w.name+".json")
}

// line renders the result as the one JSON object the contract asks for on
// the last line of standard output.
func (res *result) line() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, map[string]value{}}
	for _, d := range res.defs {
		out.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// child runs this executable again for one pass of one workload and returns
// its standard output; every pass gets a fresh process, so peak_rss_mb and
// the allocator's state belong to that pass alone.
func child(w *workload, seed int64, seconds float64, trace int) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}

// parseLine reads the result line back from a child's output.
func parseLine(out string) (correct bool, metrics map[string]float64, err error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var parsed struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		return false, nil, fmt.Errorf("no result line: %w", err)
	}
	metrics = map[string]float64{}
	for name, v := range parsed.Metrics {
		metrics[name] = v.Value
	}
	return parsed.Correct, metrics, nil
}

// runAll is the one command that prints every metric: each workload's
// untraced pass, then its traced pass.
func runAll(seed int64, seconds float64) bool {
	ok := true
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out, err := child(w, seed, seconds, trace)
			fmt.Print(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				ok = false
				continue
			}
			if correct, _, err := parseLine(out); err != nil || !correct {
				ok = false
			}
		}
	}
	return ok
}
