//go:build !race

package markov_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation guards skip under it.
const raceEnabled = false
