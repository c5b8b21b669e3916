package fleet

import (
	"fmt"

	"codetomo/internal/stats"
)

// LinkConfig models the radio channel between a mote and the base
// station. Each transmission is independently dropped, corrupted (one bit
// flipped), duplicated, or swapped with its successor; all draws come from
// a seeded RNG, so a given (seed, frame stream) pair always produces the
// same channel behaviour.
type LinkConfig struct {
	// DropProb is the per-packet loss probability in [0, 1].
	DropProb float64
	// DupProb is the per-packet duplication probability in [0, 1].
	DupProb float64
	// ReorderProb is the per-packet probability of being swapped with the
	// next surviving packet, in [0, 1].
	ReorderProb float64
	// CorruptProb is the per-transmission probability, in [0, 1], of a
	// single-bit flip somewhere in the frame. The frame's CRC lets the base
	// station reject the damage.
	CorruptProb float64
	// EventsPerPacket is the packetization batch size (0 = default).
	EventsPerPacket int
	// SkipCRC makes the base station's receive window accept frames
	// without checking their CRC (trace.Reassembler.SkipCRC).
	SkipCRC bool
	// ARQ configures selective-repeat recovery; the zero value disables
	// it.
	ARQ ARQConfig
	// Seed drives the channel RNG.
	Seed int64
}

// Validate rejects probabilities outside [0, 1] and inconsistent
// recovery configurations.
func (lc LinkConfig) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("fleet: link %s = %v, must be in [0, 1]", name, p)
		}
		return nil
	}
	if err := check("DropProb", lc.DropProb); err != nil {
		return err
	}
	if err := check("DupProb", lc.DupProb); err != nil {
		return err
	}
	if err := check("ReorderProb", lc.ReorderProb); err != nil {
		return err
	}
	if err := check("CorruptProb", lc.CorruptProb); err != nil {
		return err
	}
	if lc.EventsPerPacket < 0 {
		return fmt.Errorf("fleet: link EventsPerPacket = %d, must be >= 0", lc.EventsPerPacket)
	}
	if lc.ARQ.MaxRetries < 0 {
		return fmt.Errorf("fleet: link ARQ.MaxRetries = %d, must be >= 0", lc.ARQ.MaxRetries)
	}
	if lc.ARQ.Enabled() && lc.SkipCRC {
		return fmt.Errorf("fleet: ARQ requires CRC checking (SkipCRC off): without it the base station cannot tell an intact packet from a corrupt one to NACK")
	}
	return nil
}

// LinkStats counts what the channel did to one mote's upload.
type LinkStats struct {
	Sent       int
	Dropped    int
	Corrupted  int
	Duplicated int
	Reordered  int
}

// Add accumulates another mote's (or another round's) channel accounting.
func (st *LinkStats) Add(o LinkStats) {
	st.Sent += o.Sent
	st.Dropped += o.Dropped
	st.Corrupted += o.Corrupted
	st.Duplicated += o.Duplicated
	st.Reordered += o.Reordered
}

// TransmitFrames pushes raw frames through the channel. Per frame: a drop
// draw, then (only when CorruptProb > 0) a corruption draw flipping one
// random bit, then a duplication draw — the duplicate gets its own
// corruption draw, since it is a separate radio transmission — and
// finally adjacent swaps among the survivors. The draws happen in a fixed
// order per frame, so the outcome is a deterministic function of the RNG
// seed and the stream.
func (lc LinkConfig) TransmitFrames(frames [][]byte, rng *stats.RNG) ([][]byte, LinkStats) {
	st := LinkStats{Sent: len(frames)}
	out := make([][]byte, 0, len(frames))
	deliver := func(f []byte) {
		if lc.CorruptProb > 0 && rng.Bernoulli(lc.CorruptProb) {
			f = flipBit(f, rng)
			st.Corrupted++
		}
		out = append(out, f)
	}
	for _, f := range frames {
		if rng.Bernoulli(lc.DropProb) {
			st.Dropped++
			continue
		}
		deliver(f)
		if rng.Bernoulli(lc.DupProb) {
			st.Duplicated++
			deliver(f)
		}
	}
	st.Reordered = reorderPass(out, lc.ReorderProb, rng)
	if len(out) == 0 {
		return nil, st
	}
	return out, st
}

// reorderPass swaps each surviving packet with its successor on a
// Bernoulli draw. After a swap the cursor skips the swapped-in element so
// one draw displaces a packet by at most one slot — without the skip a
// single unlucky packet would cascade toward the end of the stream,
// violating the documented "swapped with its successor" semantics.
func reorderPass[T any](out []T, prob float64, rng *stats.RNG) int {
	swaps := 0
	for i := 0; i+1 < len(out); i++ {
		if rng.Bernoulli(prob) {
			out[i], out[i+1] = out[i+1], out[i]
			swaps++
			i++
		}
	}
	return swaps
}

// flipBit returns a copy of the frame with one uniformly-chosen bit
// flipped. The copy matters: duplicated frames share backing storage, and
// corruption must damage one transmission, not both.
func flipBit(frame []byte, rng *stats.RNG) []byte {
	if len(frame) == 0 {
		return frame
	}
	out := append([]byte(nil), frame...)
	bit := rng.Intn(len(out) * 8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}
