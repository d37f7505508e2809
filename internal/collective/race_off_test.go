//go:build !race

package collective

// raceEnabled reports whether the race detector is compiled in; allocation
// regression tests skip under it (instrumentation allocates), and handed-back
// frames are poisoned.
const raceEnabled = false
