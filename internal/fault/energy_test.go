package fault

import (
	"errors"
	"math"
	"testing"

	"codetomo/internal/isa"
	"codetomo/internal/mote"
)

func TestEnergyConfigValidate(t *testing.T) {
	good := []EnergyConfig{
		{},
		{HarvestUJPerKCycle: 1},
		{HarvestUJPerKCycle: 1, HarvestNoiseSigma: 0.5, DiurnalPeriodCycles: 1 << 20},
		{HarvestUJPerKCycle: 1, CapacityUJ: 50, BrownoutFloorUJ: 1, RestartChargeUJ: 40},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []EnergyConfig{
		{HarvestUJPerKCycle: -1},
		{HarvestUJPerKCycle: 1, HarvestNoiseSigma: -0.1},
		{HarvestUJPerKCycle: 1, CapacityUJ: -5},
		{HarvestUJPerKCycle: 1, CapacityUJ: 50, BrownoutFloorUJ: 60},
		{HarvestUJPerKCycle: 1, CapacityUJ: 50, RestartChargeUJ: 60},
		{HarvestUJPerKCycle: 1, CapacityUJ: 50, BrownoutFloorUJ: 10, RestartChargeUJ: 5},
		// The default floor is 2% of the default 1000 µJ: 20 µJ.
		{HarvestUJPerKCycle: 1, RestartChargeUJ: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] accepted: %+v", i, c)
		}
	}
}

// TestHarvestDeterministicRandomAccess: the harvest rate is a pure
// function of (config, mote, window) — two sources over the same config
// agree at arbitrary access orders, and the rate is constant within a
// window. This is what makes chunked dead-time integration during an
// outage bit-identical to per-instruction live accounting.
func TestHarvestDeterministicRandomAccess(t *testing.T) {
	cfg := EnergyConfig{
		HarvestUJPerKCycle:  2,
		HarvestNoiseSigma:   0.7,
		DiurnalPeriodCycles: 10_000_000,
		Seed:                99,
	}
	a := cfg.Harvest(5)
	b := cfg.Harvest(5)
	cycles := []uint64{0, 1, 65535, 65536, 1 << 20, 123456789, 17, 1<<20 + 3}
	for _, c := range cycles {
		ra := a.RateUJPerCycle(c)
		if rb := b.RateUJPerCycle(c); ra != rb {
			t.Fatalf("cycle %d: %v vs %v across sources", c, ra, rb)
		}
		if r2 := a.RateUJPerCycle(c - c%harvestWindowCycles); r2 != ra {
			t.Fatalf("cycle %d: rate varies within window (%v vs %v)", c, ra, r2)
		}
	}
	// A different mote sees a different noise stream.
	other := cfg.Harvest(6)
	same := 0
	for _, c := range cycles {
		if other.RateUJPerCycle(c) == a.RateUJPerCycle(c) {
			same++
		}
	}
	if same == len(cycles) {
		t.Error("mote 5 and mote 6 share a harvest trace")
	}
}

// TestHarvestMeanPreserved: diurnal envelope and lognormal noise are both
// normalized to preserve the configured mean rate.
func TestHarvestMeanPreserved(t *testing.T) {
	cfg := EnergyConfig{
		HarvestUJPerKCycle:  2,
		HarvestNoiseSigma:   0.5,
		DiurnalPeriodCycles: 1 << 22, // 64 windows per day
		Seed:                7,
	}
	h := cfg.Harvest(1)
	var sum float64
	const windows = 4096
	for w := uint64(0); w < windows; w++ {
		sum += h.RateUJPerCycle(w * harvestWindowCycles)
	}
	mean := sum / windows * 1000 // back to µJ/kcycle
	if mean < 1.5 || mean > 2.5 {
		t.Errorf("empirical mean %v µJ/kcycle, configured 2", mean)
	}
}

// TestBrownoutComposesWithEnergySchedule is the satellite regression: a
// time-based brownout window from Config.Resets during an energy-schedule
// run is dead time — the capacitor must keep charging through it and the
// CPU must not be billed drain for the outage, otherwise the two
// schedules double-count the brownout.
func TestBrownoutComposesWithEnergySchedule(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 30000},
		{Op: isa.LDI, Rd: 2, Imm: 1},
		{Op: isa.SUB, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
	fc := Config{CrashMTBFCycles: 20_000, BrownoutProb: 1, Seed: 11}
	ec := EnergyConfig{
		HarvestUJPerKCycle: 0.2,
		CapacityUJ:         1e6, // never browns out: isolates the compose math
		BrownoutFloorUJ:    1,
		Seed:               11,
	}
	const moteSeed = 3
	mc := mote.DefaultConfig()
	mc.Resets = fc.Resets(10_000_000, moteSeed)
	if len(mc.Resets) == 0 {
		t.Fatal("no resets scheduled")
	}
	pw := ec.Power(moteSeed, mote.CheckpointPolicy{})
	pw.StartChargeUJ = ec.CapacityUJ / 2 // headroom: banked harvest is exact
	mc.Power = pw
	m := mote.New(prog, mc)
	// Frequent brownouts restart the long loop from scratch each time, so
	// the run ends on the cycle budget — the accounting, not completion,
	// is what this regression pins.
	if err := m.Run(3_000_000); err != nil && !errors.Is(err, mote.ErrCycleBudget) {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.Resets == 0 || s.DownCycles == 0 {
		t.Fatalf("brownouts not injected: %+v", s)
	}
	// Drain prices active cycles only.
	active := s
	active.Cycles -= s.DownCycles
	wantDrain := mote.DefaultEnergyModel().Energy(active)
	if math.Abs(s.DrainedUJ-wantDrain) > 1e-6 {
		t.Errorf("DrainedUJ = %v, want %v: brownout cycles double-counted as CPU drain", s.DrainedUJ, wantDrain)
	}
	// Harvest keeps flowing through the outage: flat source, uncapped
	// capacitor, so banked harvest is rate × every elapsed cycle.
	wantHarvest := ec.HarvestUJPerKCycle / 1000 * float64(s.Cycles)
	if math.Abs(s.HarvestedUJ-wantHarvest) > 1e-3 {
		t.Errorf("HarvestedUJ = %v, want %v: outage harvest lost", s.HarvestedUJ, wantHarvest)
	}
}

// BenchmarkHarvestRate prices the per-instruction hot path: a cached
// same-window lookup plus one window crossing per 65536 cycles.
func BenchmarkHarvestRate(b *testing.B) {
	cfg := EnergyConfig{
		HarvestUJPerKCycle:  2,
		HarvestNoiseSigma:   0.5,
		DiurnalPeriodCycles: 1 << 24,
		Seed:                1,
	}
	h := cfg.Harvest(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.RateUJPerCycle(uint64(i) * 2)
	}
	_ = sink
}

// BenchmarkResets prices schedule derivation for one mote.
func BenchmarkResets(b *testing.B) {
	cfg := Config{CrashMTBFCycles: 500_000, BrownoutProb: 0.2, Seed: 42}
	for i := 0; i < b.N; i++ {
		cfg.Resets(64_000_000, int64(i))
	}
}
