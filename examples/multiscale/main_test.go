package main

import "testing"

// TestRun: the slow source process copies fewer versions with buddy-help
// than without it (main prints the difference as "memcpys removed").
func TestRun(t *testing.T) {
	on, err := run(*n, *epochs, *ratio, *slowDur, true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := run(*n, *epochs, *ratio, *slowDur, false)
	if err != nil {
		t.Fatal(err)
	}
	if on.Exports != off.Exports || on.Copies >= off.Copies {
		t.Errorf("buddy on: %d exports, %d memcpys; off: %d exports, %d memcpys; want fewer memcpys with it on",
			on.Exports, on.Copies, off.Exports, off.Copies)
	}
}
