package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// stdout runs f and returns what it printed.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = saved
	w.Close()
	return string(<-out)
}

// TestRun: the sink gets a smoothed field for each of its requests, in
// order, and smoothing a sine field keeps every value inside [-1, 1].
func TestRun(t *testing.T) {
	out := stdout(t, run)
	ranges := regexp.MustCompile(`sink: smooth@(\d+) in \[(\S+), (\S+)\]`).FindAllStringSubmatch(out, -1)
	if len(ranges) != *ticks/4 || !strings.HasSuffix(out, "pipeline done\n") {
		t.Fatalf("%d sink ranges, want %d:\n%s", len(ranges), *ticks/4, out)
	}
	for j, m := range ranges {
		lo, _ := strconv.ParseFloat(m[2], 64)
		hi, _ := strconv.ParseFloat(m[3], 64)
		if m[1] != strconv.Itoa(4*(j+1)) || lo < -1 || lo > hi || hi > 1 {
			t.Errorf("sink range %d: %s", j, m[0])
		}
	}
}
