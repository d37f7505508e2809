package main

import (
	"fmt"
	"io"
	"os"
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

// TestRun: the ocean gets the interface strip at every epoch's end, and the
// exporter sends one strip transfer per epoch.
func TestRun(t *testing.T) {
	out := stdout(t, run)
	for j := 1; j <= *epochs; j++ {
		if want := fmt.Sprintf("epoch %d: surface strip @%d,", j, j**ratio); !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if want := fmt.Sprintf(", %d strip transfers\n", *epochs); !strings.Contains(out, want) {
		t.Errorf("missing %q in:\n%s", want, out)
	}
}
