//go:build !race

package fleet

// raceEnabled reports whether the race detector instruments this build;
// the scale gate skips under it.
const raceEnabled = false
