package mote

import (
	"math"
	"reflect"
	"testing"

	"codetomo/internal/isa"
)

// constRate is a flat harvest source for tests.
type constRate float64

func (c constRate) RateUJPerCycle(uint64) float64 { return float64(c) }

// tracedLoopProg is a main frame (proc 0) around n handler invocations
// (proc 1), each spinning a small work loop. TRACE ids follow the 2k/2k+1
// enter/exit convention.
func tracedLoopProg(n, work int32) []isa.Instr {
	return []isa.Instr{
		{Op: isa.TRACE, Imm: 0},            // 0: enter main
		{Op: isa.LDI, Rd: 1, Imm: n},       // 1
		{Op: isa.TRACE, Imm: 2},            // 2: enter handler
		{Op: isa.LDI, Rd: 2, Imm: work},    // 3
		{Op: isa.LDI, Rd: 3, Imm: 1},       // 4
		{Op: isa.SUB, Rd: 2, Ra: 2, Rb: 3}, // 5: work loop
		{Op: isa.BNZ, Ra: 2, Imm: 5},       // 6
		{Op: isa.TRACE, Imm: 3},            // 7: exit handler
		{Op: isa.SUB, Rd: 1, Ra: 1, Rb: 3}, // 8
		{Op: isa.BNZ, Ra: 1, Imm: 2},       // 9
		{Op: isa.TRACE, Imm: 1},            // 10: exit main
		{Op: isa.HALT},                     // 11
	}
}

func countID(trace []TraceEvent, id int32) int {
	n := 0
	for _, ev := range trace {
		if ev.ID == id {
			n++
		}
	}
	return n
}

// TestPowerDrainAccounting: on a capacitor big enough to never brown out,
// the drained energy must telescope to exactly the energy model's price
// of the run, and charge conservation must hold.
func TestPowerDrainAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Power = &PowerConfig{CapacityUJ: 1e6, BrownoutFloorUJ: 1}
	m := New(tracedLoopProg(10, 20), cfg)
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.PowerFailures != 0 || s.HarvestedUJ != 0 {
		t.Fatalf("unexpected power events: %+v", s)
	}
	want := DefaultEnergyModel().Energy(s)
	if math.Abs(s.DrainedUJ-want) > 1e-6 {
		t.Errorf("DrainedUJ = %v, want %v", s.DrainedUJ, want)
	}
	if got := m.power.charge; math.Abs(got-(1e6-s.DrainedUJ)) > 1e-6 {
		t.Errorf("charge = %v, want %v", got, 1e6-s.DrainedUJ)
	}
}

// TestPowerFailureColdBoot: with no checkpoint policy an outage cold-boots
// the mote — EpochMark in the (fully durable) trace, no restores — and
// the run completes on the second attempt once harvest refills the
// capacitor (the program fits in one full charge but not in the small
// starting charge).
func TestPowerFailureColdBoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Power = &PowerConfig{
		CapacityUJ:      2.0,
		StartChargeUJ:   0.3,
		BrownoutFloorUJ: 0.05,
		RestartChargeUJ: 1.8,
		Harvest:         constRate(0.0005), // well below the CPU draw
	}
	m := New(tracedLoopProg(8, 10), cfg)
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.PowerFailures == 0 {
		t.Fatal("expected at least one power failure")
	}
	if s.Restores != 0 || s.Checkpoints != 0 {
		t.Fatalf("cold-boot mode took checkpoints: %+v", s)
	}
	if got := countID(m.Trace(), EpochMarkID); got != int(s.PowerFailures) {
		t.Errorf("epoch marks = %d, want %d", got, s.PowerFailures)
	}
	if countID(m.Trace(), PowerMarkID) != 0 {
		t.Error("cold boots must not log PowerMark")
	}
	if s.DownCycles == 0 {
		t.Error("recharge windows must appear as down cycles")
	}
	if !m.Halted() {
		t.Error("program did not complete")
	}
}

// TestCheckpointRestore: with a periodic checkpoint policy the mote
// resumes from the durable image, so every handler invocation appears in
// the final durable trace exactly once even though outages discard and
// re-execute the volatile tail.
func TestCheckpointRestore(t *testing.T) {
	const n = 200
	cfg := DefaultConfig()
	cfg.Power = &PowerConfig{
		CapacityUJ:      100,
		BrownoutFloorUJ: 2,
		RestartChargeUJ: 90,
		Harvest:         constRate(0.0005),
		Checkpoint:      CheckpointPolicy{EveryKInvocations: 4},
	}
	m := New(tracedLoopProg(n, 30), cfg)
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.PowerFailures == 0 || s.Checkpoints == 0 || s.Restores == 0 {
		t.Fatalf("expected failures+checkpoints+restores, got %+v", s)
	}
	tr := m.Trace()
	if got := countID(tr, PowerMarkID); got != int(s.Restores) {
		t.Errorf("power marks = %d, want %d restores", got, s.Restores)
	}
	if enters, exits := countID(tr, 2), countID(tr, 3); enters != n || exits != n {
		t.Errorf("handler enter/exit = %d/%d, want %d/%d", enters, exits, n, n)
	}
	if s.LostVolatileEvents == 0 {
		t.Error("outages should have discarded volatile events")
	}
	if !m.Halted() {
		t.Error("program did not complete")
	}
}

// TestPowerDeterminism: two identical intermittent runs are bit-identical
// in stats and trace.
func TestPowerDeterminism(t *testing.T) {
	mk := func() *Machine {
		cfg := DefaultConfig()
		cfg.Power = &PowerConfig{
			CapacityUJ:      100,
			BrownoutFloorUJ: 2,
			RestartChargeUJ: 90,
			Harvest:         constRate(0.0006),
			Checkpoint:      CheckpointPolicy{EveryKInvocations: 3},
		}
		return New(tracedLoopProg(160, 25), cfg)
	}
	a, b := mk(), mk()
	errA, errB := a.Run(200_000_000), b.Run(200_000_000)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors diverge: %v vs %v", errA, errB)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverge:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.Trace(), b.Trace()) {
		t.Error("traces diverge")
	}
}

// TestResetComposesWithPower is the satellite regression: a time-based
// watchdog/brownout outage under power mode is dead time — the capacitor
// keeps harvesting but the CPU must not be charged drain for the down
// cycles. Drained energy therefore prices only active cycles, and charge
// conservation holds including the outage's harvest credit.
func TestResetComposesWithPower(t *testing.T) {
	const rate = 0.0002
	cfg := DefaultConfig()
	cfg.Resets = []ResetEvent{{AtCycle: 400, DownCycles: 65536}}
	cfg.Power = &PowerConfig{
		CapacityUJ:      1e6,
		StartChargeUJ:   5e5, // headroom: nothing harvested may spill
		BrownoutFloorUJ: 1,
		Harvest:         constRate(rate),
	}
	m := New(tracedLoopProg(30, 20), cfg)
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.Resets != 1 || s.DownCycles != 65536 {
		t.Fatalf("reset not taken as scheduled: %+v", s)
	}
	if s.PowerFailures != 0 {
		t.Fatalf("unexpected power failure: %+v", s)
	}
	// Energy(stats) prices every cycle including the outage; drained must
	// exclude the 65536 down cycles (the double-count this test pins).
	active := s
	active.Cycles -= s.DownCycles
	want := DefaultEnergyModel().Energy(active)
	if math.Abs(s.DrainedUJ-want) > 1e-6 {
		t.Errorf("DrainedUJ = %v, want %v (active cycles only)", s.DrainedUJ, want)
	}
	// The capacitor never filled (huge capacity), so every harvested µJ
	// was banked: rate × all cycles, outage included.
	wantHarvest := rate * float64(s.Cycles)
	if math.Abs(s.HarvestedUJ-wantHarvest) > 1e-6 {
		t.Errorf("HarvestedUJ = %v, want %v", s.HarvestedUJ, wantHarvest)
	}
	if got := m.power.charge; math.Abs(got-(5e5+s.HarvestedUJ-s.DrainedUJ)) > 1e-6 {
		t.Errorf("charge conservation violated: %v", got)
	}
}

// TestWatchdogRestoreUnderPower: with checkpointing on, a watchdog reset
// goes through the same restore path as a power failure (the intermittent
// runtime always boots from its last durable image), so the handler count
// invariant holds across the reset too.
func TestWatchdogRestoreUnderPower(t *testing.T) {
	const n = 20
	cfg := DefaultConfig()
	cfg.Resets = []ResetEvent{{AtCycle: 3000, DownCycles: 512}}
	cfg.Power = &PowerConfig{
		CapacityUJ:      1e6,
		BrownoutFloorUJ: 1,
		Harvest:         constRate(0.002),
		Checkpoint:      CheckpointPolicy{EveryKInvocations: 2},
	}
	m := New(tracedLoopProg(n, 20), cfg)
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.Resets != 1 {
		t.Fatalf("reset not taken: %+v", s)
	}
	if s.Restores != 1 {
		t.Fatalf("watchdog reset did not restore from checkpoint: %+v", s)
	}
	tr := m.Trace()
	if enters, exits := countID(tr, 2), countID(tr, 3); enters != n || exits != n {
		t.Errorf("handler enter/exit = %d/%d, want %d/%d", enters, exits, n, n)
	}
}

// TestLowChargeCheckpointPolicy: the on-low-charge trigger alone must
// produce checkpoints and restores.
func TestLowChargeCheckpointPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Power = &PowerConfig{
		CapacityUJ:      100,
		BrownoutFloorUJ: 2,
		RestartChargeUJ: 90,
		Harvest:         constRate(0.0002),
		Checkpoint:      CheckpointPolicy{OnLowChargeFrac: 0.25},
	}
	m := New(tracedLoopProg(600, 30), cfg)
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := m.Stats()
	if s.Checkpoints == 0 || s.Restores == 0 {
		t.Fatalf("low-charge policy idle: %+v", s)
	}
	if !m.Halted() {
		t.Error("program did not complete")
	}
}

// TestNoHarvestExhaustsBudget: a dead harvest source cannot recover, so
// the capped dark window must surface as cycle-budget exhaustion instead
// of an infinite recharge wait.
func TestNoHarvestExhaustsBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Power = &PowerConfig{
		CapacityUJ:      2.0,
		BrownoutFloorUJ: 0.05,
		RestartChargeUJ: 1.8,
	}
	m := New(tracedLoopProg(1000, 50), cfg)
	err := m.Run(50_000_000)
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	if s := m.Stats(); s.PowerFailures != 1 {
		t.Errorf("power failures = %d, want 1", s.PowerFailures)
	}
}
