//go:build race

package buffer

// raceEnabled reports whether the race detector is compiled in; Frames
// poisons handed-back frames only under it.
const raceEnabled = true
