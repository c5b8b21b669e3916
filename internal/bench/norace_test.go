//go:build !race

package bench

// raceEnabled reports whether the race detector instruments this build;
// the golden gate skips under it.
const raceEnabled = false
