// Package fault injects deterministic hardware faults into simulated
// motes: watchdog crash/reboots and energy brownouts (delivered as
// mote.ResetEvent schedules) and stuck-at / noisy-ADC sensor faults
// (delivered as a mote.SampleSource wrapper). Every fault is a pure
// function of the fault config and the mote's identity, so a faulty fleet
// is exactly as reproducible as a healthy one — no wall clock, no global
// RNG.
package fault

import (
	"fmt"

	"codetomo/internal/mote"
	"codetomo/internal/stats"
)

// Per-subsystem seed strides: each mote's crash and sensor streams derive
// from (Seed, mote identity) with distinct odd primes so the streams stay
// disjoint from each other and from the fleet's workload/channel RNGs.
const (
	crashSeedStride  = 15485863
	sensorSeedStride = 32452843

	// maxResetsPerMote is a safety bound on a schedule's length; a
	// realistic campaign sees a handful of resets, so hitting it means a
	// misconfigured MTBF, not a longer outage series worth modeling.
	maxResetsPerMote = 10000

	// rebootCycles is the dead time an ordinary watchdog reset costs.
	rebootCycles = 512
)

// Config describes the fault environment a deployment runs in. The zero
// value injects nothing.
type Config struct {
	// CrashMTBFCycles is the mean number of cycles between watchdog
	// resets (exponential inter-arrival times); 0 disables crash
	// injection.
	CrashMTBFCycles uint64
	// BrownoutProb is the probability, in [0, 1], that a given reset is an
	// energy brownout with a much longer outage instead of a quick
	// watchdog reboot.
	BrownoutProb float64
	// BrownoutCycles is the brownout outage length (default 65536).
	BrownoutCycles uint64
	// SensorStuckProb is the per-read probability, in [0, 1], that the ADC
	// latches the current reading for SensorStuckReads reads (a classic
	// stuck-at fault).
	SensorStuckProb float64
	// SensorStuckReads is how many reads a stuck-at episode lasts
	// (default 32).
	SensorStuckReads int
	// SensorNoiseProb is the per-read probability, in [0, 1], of an ADC
	// glitch replacing the reading with reading±uniform(SensorNoiseAmp).
	SensorNoiseProb float64
	// SensorNoiseAmp is the glitch magnitude (default 2048).
	SensorNoiseAmp int
	// Seed drives every fault draw; per-mote streams derive from it.
	Seed int64
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.CrashMTBFCycles > 0 || c.SensorStuckProb > 0 || c.SensorNoiseProb > 0
}

// Validate rejects configurations that cannot describe a fault
// environment: probabilities outside [0, 1] or negative episode lengths.
func (c Config) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: %s = %v, must be in [0, 1]", name, p)
		}
		return nil
	}
	if err := check("BrownoutProb", c.BrownoutProb); err != nil {
		return err
	}
	if err := check("SensorStuckProb", c.SensorStuckProb); err != nil {
		return err
	}
	if err := check("SensorNoiseProb", c.SensorNoiseProb); err != nil {
		return err
	}
	if c.SensorStuckReads < 0 {
		return fmt.Errorf("fault: SensorStuckReads = %d, must be >= 0 (zero selects the default of 32)", c.SensorStuckReads)
	}
	if c.SensorNoiseAmp < 0 {
		return fmt.Errorf("fault: SensorNoiseAmp = %d, must be >= 0 (zero selects the default of 2048)", c.SensorNoiseAmp)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.BrownoutCycles == 0 {
		c.BrownoutCycles = 65536
	}
	if c.SensorStuckReads == 0 {
		c.SensorStuckReads = 32
	}
	if c.SensorNoiseAmp == 0 {
		c.SensorNoiseAmp = 2048
	}
	return c
}

// Resets derives one mote's reset schedule for a campaign of maxCycles
// cycles: exponential inter-arrival times with mean CrashMTBFCycles, each
// reset independently upgraded to a brownout with BrownoutProb. The
// schedule is strictly increasing and entirely determined by (Config,
// moteSeed), so re-deriving it always yields the same faults.
func (c Config) Resets(maxCycles uint64, moteSeed int64) []mote.ResetEvent {
	c = c.withDefaults()
	if c.CrashMTBFCycles == 0 || maxCycles == 0 {
		return nil
	}
	rng := stats.NewRNG(c.Seed + moteSeed*crashSeedStride + 1)
	var out []mote.ResetEvent
	at := uint64(0)
	for len(out) < maxResetsPerMote {
		gap := uint64(rng.Exponential(1 / float64(c.CrashMTBFCycles)))
		if gap == 0 {
			gap = 1
		}
		at += gap
		if at >= maxCycles {
			break
		}
		down := uint64(rebootCycles)
		if rng.Bernoulli(c.BrownoutProb) {
			down = c.BrownoutCycles
		}
		out = append(out, mote.ResetEvent{AtCycle: at, DownCycles: down})
		at += down
	}
	return out
}

// WrapSensor layers the config's sensor faults over a workload source.
// With no sensor faults configured the source is returned unchanged, so
// healthy motes pay nothing.
func (c Config) WrapSensor(inner mote.SampleSource, moteSeed int64) mote.SampleSource {
	c = c.withDefaults()
	if c.SensorStuckProb == 0 && c.SensorNoiseProb == 0 {
		return inner
	}
	return &faultySensor{
		inner: inner,
		cfg:   c,
		rng:   stats.NewRNG(c.Seed + moteSeed*sensorSeedStride + 2),
	}
}

// faultySensor injects stuck-at and glitch faults into an ADC stream. The
// inner source is always consulted first so the underlying workload RNG
// advances identically with and without faults — faults perturb what the
// program sees, not what the environment produced.
type faultySensor struct {
	inner mote.SampleSource
	cfg   Config
	rng   *stats.RNG

	stuckVal  uint16
	stuckLeft int
}

func (s *faultySensor) Next() uint16 {
	v := s.inner.Next()
	if s.stuckLeft > 0 {
		s.stuckLeft--
		return s.stuckVal
	}
	if s.cfg.SensorStuckProb > 0 && s.rng.Bernoulli(s.cfg.SensorStuckProb) {
		// The ADC latches the current reading for the episode length.
		s.stuckVal = v
		s.stuckLeft = s.cfg.SensorStuckReads
		return v
	}
	if s.cfg.SensorNoiseProb > 0 && s.rng.Bernoulli(s.cfg.SensorNoiseProb) {
		amp := s.cfg.SensorNoiseAmp
		g := int(v) + s.rng.Intn(2*amp+1) - amp
		// The ADC saturates at its rails; a glitch never wraps around.
		if g < 0 {
			g = 0
		} else if g > 0xFFFF {
			g = 0xFFFF
		}
		return uint16(g)
	}
	return v
}
