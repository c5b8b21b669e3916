package stats

// Moments accumulates streaming mean and variance (Welford's algorithm)
// without storing the samples.
type Moments struct {
	n        int
	mean, m2 float64
}

// Push adds a sample.
func (m *Moments) Push(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}
