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

// TestRun: every import matches, and buddy-help lets the slow process p_s
// skip copies of forcing versions no request can match.
func TestRun(t *testing.T) {
	out := stdout(t, run)
	if got := strings.Count(out, "imported forcing"); got != *steps / *every {
		t.Errorf("%d imports matched, want %d:\n%s", got, *steps / *every, out)
	}
	m := regexp.MustCompile(`slow process p_s: (\d+) exports, (\d+) memcpys, (\d+) skips`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no p_s summary in:\n%s", out)
	}
	if skips, _ := strconv.Atoi(m[3]); skips == 0 {
		t.Errorf("p_s skipped nothing:\n%s", out)
	}
}
