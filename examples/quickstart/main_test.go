package main

import (
	"io"
	"os"
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

// TestRun: the REGL request at 4.2 matches the export at 4 (whose corner
// value is 4*100), and the one at 9.7 has no export in [9.2, 9.7].
func TestRun(t *testing.T) {
	want := "import @4.2 -> matched export @4 (corner value 400)\n" +
		"import @9.7 -> NO MATCH within tolerance\n" +
		"quickstart done\n"
	if got := stdout(t, run); got != want {
		t.Errorf("printed:\n%s\nwant:\n%s", got, want)
	}
}
