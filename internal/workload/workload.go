// Package workload generates the nondeterministic inputs that drive the
// benchmark programs — the "environment" of the sensor network. Each
// generator implements mote.SampleSource and feeds the simulated ADC (or
// entropy port). The regimes span what field deployments see: calm Gaussian
// noise, Poisson event bursts, regime-switching (Markov-modulated) sources,
// and slow diurnal drift. Branch probabilities inside the programs are
// induced by these distributions, which is what makes them stationary but
// unknown — the setting Code Tomography targets.
package workload

import (
	"math"

	"codetomo/internal/isa"
	"codetomo/internal/stats"
)

// clamp10 clamps to the mote ADC's 10-bit range [0, isa.ADCMaxReading].
func clamp10(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > isa.ADCMaxReading {
		return isa.ADCMaxReading
	}
	return uint16(v)
}

// Gaussian produces N(Mean, Sigma²) readings clamped to the ADC range.
type Gaussian struct {
	Mean, Sigma float64
	rng         *stats.RNG
}

// NewGaussian returns a Gaussian source.
func NewGaussian(rng *stats.RNG, mean, sigma float64) *Gaussian {
	return &Gaussian{Mean: mean, Sigma: sigma, rng: rng}
}

// Next implements mote.SampleSource.
func (g *Gaussian) Next() uint16 { return clamp10(g.rng.Normal(g.Mean, g.Sigma)) }

// Reset implements Source; a Gaussian keeps no state of its own.
func (g *Gaussian) Reset() {}

// Uniform produces uniform readings in [Lo, Hi].
type Uniform struct {
	Lo, Hi uint16
	rng    *stats.RNG
}

// NewUniform returns a Uniform source.
func NewUniform(rng *stats.RNG, lo, hi uint16) *Uniform {
	if hi < lo {
		lo, hi = hi, lo
	}
	return &Uniform{Lo: lo, Hi: hi, rng: rng}
}

// Next implements mote.SampleSource.
func (u *Uniform) Next() uint16 {
	return u.Lo + uint16(u.rng.Intn(int(u.Hi-u.Lo)+1))
}

// Reset implements Source; a Uniform keeps no state of its own.
func (u *Uniform) Reset() {}

// PoissonEvents models a quiet baseline punctuated by event spikes: each
// reading is baseline noise, but with probability EventProb an event of
// geometric duration begins during which readings jump to the spike level.
type PoissonEvents struct {
	BaseMean, BaseSigma   float64
	SpikeMean, SpikeSigma float64
	// EventProb is the per-reading probability a new event starts.
	EventProb float64
	// MeanDuration is the mean number of readings an event lasts.
	MeanDuration float64

	rng       *stats.RNG
	remaining int
}

// NewPoissonEvents returns a bursty event source.
func NewPoissonEvents(rng *stats.RNG, eventProb, meanDuration float64) *PoissonEvents {
	return &PoissonEvents{
		BaseMean: 80, BaseSigma: 15,
		SpikeMean: 700, SpikeSigma: 60,
		EventProb:    eventProb,
		MeanDuration: meanDuration,
		rng:          rng,
	}
}

// Next implements mote.SampleSource.
func (p *PoissonEvents) Next() uint16 {
	if p.remaining == 0 && p.rng.Bernoulli(p.EventProb) {
		d := p.MeanDuration
		if d < 1 {
			d = 1
		}
		p.remaining = 1 + p.rng.Geometric(1/d)
	}
	if p.remaining > 0 {
		p.remaining--
		return clamp10(p.rng.Normal(p.SpikeMean, p.SpikeSigma))
	}
	return clamp10(p.rng.Normal(p.BaseMean, p.BaseSigma))
}

// Reset implements Source: no event is under way.
func (p *PoissonEvents) Reset() { p.remaining = 0 }

// MarkovModulated switches between regimes according to a Markov chain;
// each regime has its own Gaussian emission. It models environments whose
// statistics change on timescales longer than one reading (wind gusts,
// machinery duty cycles).
type MarkovModulated struct {
	// Stay[i] is the probability of remaining in regime i.
	Stay []float64
	// Mean and Sigma are per-regime emission parameters.
	Mean, Sigma []float64

	rng   *stats.RNG
	state int
}

// NewMarkovModulated returns a two-regime (calm/active) source.
func NewMarkovModulated(rng *stats.RNG, stayCalm, stayActive float64) *MarkovModulated {
	return &MarkovModulated{
		Stay:  []float64{stayCalm, stayActive},
		Mean:  []float64{120, 600},
		Sigma: []float64{25, 90},
		rng:   rng,
	}
}

// Next implements mote.SampleSource.
func (m *MarkovModulated) Next() uint16 {
	if !m.rng.Bernoulli(m.Stay[m.state]) {
		m.state = (m.state + 1) % len(m.Stay)
	}
	return clamp10(m.rng.Normal(m.Mean[m.state], m.Sigma[m.state]))
}

// Reset implements Source: back in the first regime.
func (m *MarkovModulated) Reset() { m.state = 0 }

// Diurnal models a slow sinusoidal drift (temperature over a day) plus
// noise. Period is in readings.
type Diurnal struct {
	Base, Amplitude, Sigma float64
	Period                 int
	rng                    *stats.RNG
	t                      int
}

// NewDiurnal returns a diurnal-drift source.
func NewDiurnal(rng *stats.RNG, base, amplitude float64, period int) *Diurnal {
	if period <= 0 {
		period = 1024
	}
	return &Diurnal{Base: base, Amplitude: amplitude, Sigma: 12, Period: period, rng: rng}
}

// Next implements mote.SampleSource.
func (d *Diurnal) Next() uint16 {
	phase := 2 * math.Pi * float64(d.t%d.Period) / float64(d.Period)
	d.t++
	return clamp10(d.Base + d.Amplitude*math.Sin(phase) + d.rng.Normal(0, d.Sigma))
}

// Reset implements Source: back at phase 0.
func (d *Diurnal) Reset() { d.t = 0 }

// Entropy is a full-range uniform word source for the RNG port.
type Entropy struct {
	rng *stats.RNG
}

// NewEntropy returns an entropy source.
func NewEntropy(rng *stats.RNG) *Entropy { return &Entropy{rng: rng} }

// Next implements mote.SampleSource.
func (e *Entropy) Next() uint16 { return uint16(e.rng.Intn(1 << 16)) }

// Source is a named regime's reading source. Reset returns it to its
// initial state, so a caller that reseeds the RNG it was built on can run
// it again as if new, without building another.
type Source interface {
	Next() uint16
	Reset()
}

// Named builds a workload regime by name — the harness sweeps these in the
// input-sensitivity experiment (F7).
func Named(name string, rng *stats.RNG) (Source, bool) {
	switch name {
	case "gaussian":
		return NewGaussian(rng, 300, 120), true
	case "uniform":
		return NewUniform(rng, 0, isa.ADCMaxReading), true
	case "bursty":
		return NewPoissonEvents(rng, 0.05, 8), true
	case "regime":
		return NewMarkovModulated(rng, 0.95, 0.85), true
	case "diurnal":
		return NewDiurnal(rng, 400, 250, 512), true
	}
	return nil, false
}

// RegimeNames lists the named workloads in sweep order.
func RegimeNames() []string {
	return []string{"gaussian", "uniform", "bursty", "regime", "diurnal"}
}
