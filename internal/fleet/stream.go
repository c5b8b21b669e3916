package fleet

// BatchStreams turns per-mote, per-procedure sample sets into uplink
// rounds: each mote's stream is cut into `batches` slices, and round b is
// the concatenation of every mote's slice b in mote order. This models the
// base station receiving one upload round from the whole fleet at a time,
// and is deterministic for a fixed mote order.
func BatchStreams(perMote []map[int][]float64, batches int) map[int][][]float64 {
	if batches <= 0 {
		batches = 1
	}
	out := make(map[int][][]float64)
	procs := map[int]bool{}
	for _, m := range perMote {
		for p := range m {
			procs[p] = true
		}
	}
	for p := range procs {
		// Size every round before filling it, so each is allocated once:
		// a stream of n samples puts min(chunk, n-b·chunk) in round b.
		sizes := make([]int, batches)
		for _, m := range perMote {
			n := len(m[p])
			chunk := (n + batches - 1) / batches
			for b := 0; b*chunk < n; b++ {
				sizes[b] += min(chunk, n-b*chunk)
			}
		}
		rounds := make([][]float64, batches)
		for b, n := range sizes {
			if n > 0 {
				rounds[b] = make([]float64, 0, n)
			}
		}
		for _, m := range perMote {
			s := m[p]
			chunk := (len(s) + batches - 1) / batches
			for b := 0; b*chunk < len(s); b++ {
				lo := b * chunk
				rounds[b] = append(rounds[b], s[lo:min(lo+chunk, len(s))]...)
			}
		}
		out[p] = rounds
	}
	return out
}
