package tomography

import "slices"

// SampleCounts is a multiset of duration samples held as a histogram: the
// distinct values in ascending order, each with the number of samples
// that took it (always positive). A timer tick quantizes every measured
// duration, so however long a stream grows it has few distinct values.
// Every estimator is a function of this multiset alone, so it is the form
// samples travel in from the mote, the fleet or the station to the
// estimator.
type SampleCounts struct {
	Values []float64
	Counts []int
}

// CountSamples returns the histogram of samples. Callers must have
// validated the samples: NaN breaks both the sort and the grouping.
func CountSamples(samples []float64) SampleCounts {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	// The distinct values are compacted into the sorted copy: the write
	// index never passes the read index.
	h := SampleCounts{Values: sorted[:0]}
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		h.Values = append(h.Values, sorted[i])
		h.Counts = append(h.Counts, j-i)
		i = j
	}
	return h
}

// N returns the number of samples.
func (h SampleCounts) N() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Reset empties h, keeping its buffers.
func (h *SampleCounts) Reset() {
	h.Values, h.Counts = h.Values[:0], h.Counts[:0]
}

// Add records c > 0 samples of the finite value v: a binary search, and
// an insertion only when v is new.
func (h *SampleCounts) Add(v float64, c int) {
	i, j := 0, len(h.Values)
	for i < j {
		if m := int(uint(i+j) >> 1); h.Values[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(h.Values) && h.Values[i] == v {
		h.Counts[i] += c
		return
	}
	h.Values = slices.Insert(h.Values, i, v)
	h.Counts = slices.Insert(h.Counts, i, c)
}

// Merge adds o's samples to h in one pass over both histograms. The merge
// runs from the top, so h grows in place and allocates only when it
// outgrows its capacity. Where both hold a value (−0 and +0 are one
// value) h's stays. o must not share storage with h.
func (h *SampleCounts) Merge(o SampleCounts) {
	n, u := len(h.Values), len(h.Values)+len(o.Values)
	for i, j := 0, 0; i < n && j < len(o.Values); {
		switch a, b := h.Values[i], o.Values[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			i, j, u = i+1, j+1, u-1
		}
	}
	h.Values = slices.Grow(h.Values, u-n)[:u]
	h.Counts = slices.Grow(h.Counts, u-n)[:u]
	i, j := n-1, len(o.Values)-1
	for k := u - 1; j >= 0; k-- {
		switch {
		case i >= 0 && h.Values[i] > o.Values[j]:
			h.Values[k], h.Counts[k] = h.Values[i], h.Counts[i]
			i--
		case i >= 0 && h.Values[i] == o.Values[j]:
			h.Values[k], h.Counts[k] = h.Values[i], h.Counts[i]+o.Counts[j]
			i, j = i-1, j-1
		default:
			h.Values[k], h.Counts[k] = o.Values[j], o.Counts[j]
			j--
		}
	}
}

// valueAt returns the sample of ascending rank r (0-based, r < N()).
func (h SampleCounts) valueAt(r int) float64 {
	for i, c := range h.Counts {
		if r < c {
			return h.Values[i]
		}
		r -= c
	}
	panic("tomography: sample rank out of range")
}
