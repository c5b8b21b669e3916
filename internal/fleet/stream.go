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
		rounds := make([][]float64, batches)
		for _, m := range perMote {
			s := m[p]
			if len(s) == 0 {
				continue
			}
			chunk := (len(s) + batches - 1) / batches
			for b := 0; b < batches; b++ {
				lo := b * chunk
				if lo >= len(s) {
					break
				}
				hi := lo + chunk
				if hi > len(s) {
					hi = len(s)
				}
				rounds[b] = append(rounds[b], s[lo:hi]...)
			}
		}
		out[p] = rounds
	}
	return out
}
