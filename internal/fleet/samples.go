package fleet

import (
	"codetomo/internal/isa"
	"codetomo/internal/tomography"
)

// Samples is a deployment's recovered exclusive durations in cycles, as
// the base station keeps them: indexed by procedure and then by uplink
// round, one histogram each. A mote's n durations of a procedure, in the
// order its invocations completed, are cut into runs of ceil(n/rounds);
// run r goes to round r, so round r is the fleet's r-th upload of that
// procedure (see SimConfig.Rounds).
type Samples [][]tomography.SampleCounts

// newSamples returns an empty Samples for procs procedures.
func newSamples(procs, rounds int) Samples {
	s := make(Samples, procs)
	for p := range s {
		s[p] = make([]tomography.SampleCounts, rounds)
	}
	return s
}

// Merge adds o's samples to s round by round, shaping an empty s like o.
// Counts are integer sums, so merges in any order give the same result.
func (s *Samples) Merge(o Samples) {
	if *s == nil && len(o) > 0 {
		*s = newSamples(len(o), len(o[0]))
	}
	for p, rounds := range o {
		for r := range rounds {
			(*s)[p][r].Merge(rounds[r])
		}
	}
}

// reset empties every histogram, keeping the buffers.
func (s Samples) reset() {
	for _, rounds := range s {
		for r := range rounds {
			rounds[r].Reset()
		}
	}
}

// tracedProcs returns one more than the largest procedure index prog logs
// (procedure k logs TRACE 2k and 2k+1). An interval the upload claims for
// any other index can only come from a corrupted frame accepted without
// its CRC check.
func tracedProcs(prog []isa.Instr) int {
	n := 0
	for _, in := range prog {
		if in.Op == isa.TRACE && in.Imm >= 0 {
			n = max(n, int(in.Imm)/2+1)
		}
	}
	return n
}
