package fault

import (
	"fmt"
	"math"

	"codetomo/internal/mote"
	"codetomo/internal/stats"
)

// Energy-harvesting power schedules: instead of (or in addition to) the
// time-based crash schedules above, a mote can run from a storage
// capacitor charged by a seeded stochastic harvest process — a solar-like
// diurnal envelope modulated by per-window lognormal noise — and drained
// per cycle / per radio word through mote.EnergyModel. Power cuts the
// instant charge hits the brownout floor, so outages land wherever the
// program's own energy consumption puts them, not on a wall-clock
// schedule. Like every fault in this package, the harvest trace is a pure
// function of (EnergyConfig, mote identity).

// Harvest-process constants. The noise window matches the mote core's
// harvest integration chunk so chunked dead-time integration crosses
// window boundaries exactly.
const (
	harvestWindowCycles = 1 << 16

	// Seed strides for the harvest stream, distinct odd primes from the
	// crash/sensor strides above.
	harvestSeedStride  = 49979687
	harvestWindowPrime = 15485867
)

// EnergyConfig describes an energy-harvesting deployment. The zero value
// disables power modeling (mains-powered motes).
type EnergyConfig struct {
	// HarvestUJPerKCycle is the mean harvested power in microjoules per
	// 1000 cycles; 0 disables the energy schedule entirely. For scale: the
	// default CPU draw is 1.35 µJ per kcycle, so a mean below that forces
	// a duty cycle.
	HarvestUJPerKCycle float64
	// HarvestNoiseSigma is the sigma of the per-window lognormal noise
	// multiplier (mean-1, so the configured mean rate is preserved);
	// 0 = noiseless.
	HarvestNoiseSigma float64
	// DiurnalPeriodCycles is the solar day length in cycles: the harvest
	// rate follows a half-rectified sinusoid (night = zero) scaled to
	// preserve the configured mean. 0 = flat (indoor/thermal source).
	DiurnalPeriodCycles uint64
	// CapacityUJ is the storage capacitor size (0 = 1000 µJ).
	CapacityUJ float64
	// BrownoutFloorUJ is the charge at which the CPU loses power
	// (0 = 2% of capacity).
	BrownoutFloorUJ float64
	// RestartChargeUJ is the charge required to boot after an outage
	// (0 = floor + 60% of capacity).
	RestartChargeUJ float64
	// Seed drives the harvest noise; per-mote streams derive from it.
	Seed int64
}

// Enabled reports whether the config models power at all.
func (c EnergyConfig) Enabled() bool { return c.HarvestUJPerKCycle > 0 }

// Validate rejects configurations that cannot describe a harvest
// environment.
func (c EnergyConfig) Validate() error {
	if c.HarvestUJPerKCycle < 0 {
		return fmt.Errorf("fault: HarvestUJPerKCycle = %v, must be >= 0", c.HarvestUJPerKCycle)
	}
	if c.HarvestNoiseSigma < 0 {
		return fmt.Errorf("fault: HarvestNoiseSigma = %v, must be >= 0", c.HarvestNoiseSigma)
	}
	if c.CapacityUJ < 0 {
		return fmt.Errorf("fault: CapacityUJ = %v, must be >= 0 (zero selects the default of 1000)", c.CapacityUJ)
	}
	if c.BrownoutFloorUJ < 0 {
		return fmt.Errorf("fault: BrownoutFloorUJ = %v, must be >= 0", c.BrownoutFloorUJ)
	}
	if c.RestartChargeUJ < 0 {
		return fmt.Errorf("fault: RestartChargeUJ = %v, must be >= 0", c.RestartChargeUJ)
	}
	capUJ := c.CapacityUJ
	if capUJ == 0 {
		capUJ = 1000
	}
	if c.BrownoutFloorUJ >= capUJ {
		return fmt.Errorf("fault: BrownoutFloorUJ = %v must be below CapacityUJ = %v", c.BrownoutFloorUJ, capUJ)
	}
	if c.RestartChargeUJ > capUJ {
		return fmt.Errorf("fault: RestartChargeUJ = %v must not exceed CapacityUJ = %v", c.RestartChargeUJ, capUJ)
	}
	if c.RestartChargeUJ > 0 && c.RestartChargeUJ <= c.BrownoutFloorUJ {
		return fmt.Errorf("fault: RestartChargeUJ = %v must exceed BrownoutFloorUJ = %v", c.RestartChargeUJ, c.BrownoutFloorUJ)
	}
	return nil
}

// Power builds the mote-side power configuration for one mote: the
// capacitor parameters plus this mote's deterministic harvest source and
// the given checkpoint policy. Returns nil when the config is disabled.
func (c EnergyConfig) Power(moteSeed int64, policy mote.CheckpointPolicy) *mote.PowerConfig {
	if !c.Enabled() {
		return nil
	}
	return &mote.PowerConfig{
		CapacityUJ:      c.CapacityUJ,
		BrownoutFloorUJ: c.BrownoutFloorUJ,
		RestartChargeUJ: c.RestartChargeUJ,
		Harvest:         c.Harvest(moteSeed),
		Checkpoint:      policy,
	}
}

// Harvest returns the mote's deterministic harvest source. The rate is
// piecewise-constant over 65536-cycle windows: mean rate × diurnal
// envelope at the window midpoint × the window's seeded lognormal noise
// draw. Windows are addressed randomly (the noise RNG is re-seeded per
// window), so dead-time integration and live execution see the exact same
// trace regardless of how the span is chunked.
func (c EnergyConfig) Harvest(moteSeed int64) mote.HarvestSource {
	if !c.Enabled() {
		return nil
	}
	return &harvestSource{cfg: c, moteSeed: moteSeed, lastWindow: ^uint64(0)}
}

type harvestSource struct {
	cfg      EnergyConfig
	moteSeed int64

	// Single-entry window cache: the machine advances monotonically, so
	// almost every call hits the previous window. Purely an optimization —
	// the rate is a pure function of the window index.
	lastWindow uint64
	lastRate   float64
}

// RateUJPerCycle implements mote.HarvestSource.
func (h *harvestSource) RateUJPerCycle(cycle uint64) float64 {
	w := cycle / harvestWindowCycles
	if w == h.lastWindow {
		return h.lastRate
	}
	rate := h.cfg.HarvestUJPerKCycle / 1000
	if p := h.cfg.DiurnalPeriodCycles; p > 0 {
		// Half-rectified sinusoid at the window midpoint. E[max(0,sin)] =
		// 1/π over a period, so the π factor preserves the configured
		// mean; peak solar noon is π× the mean.
		mid := w*harvestWindowCycles + harvestWindowCycles/2
		s := math.Sin(2 * math.Pi * float64(mid%p) / float64(p))
		if s < 0 {
			s = 0
		}
		rate *= s * math.Pi
	}
	if sig := h.cfg.HarvestNoiseSigma; sig > 0 && rate > 0 {
		rng := stats.NewRNG(h.cfg.Seed + h.moteSeed*harvestSeedStride + int64(w)*harvestWindowPrime + 3)
		rate *= math.Exp(sig*rng.Normal(0, 1) - sig*sig/2)
	}
	h.lastWindow, h.lastRate = w, rate
	return rate
}
