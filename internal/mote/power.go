package mote

// Intermittent execution: the machine can run from a harvested-energy
// capacitor instead of mains power. Every instruction drains the capacitor
// through the EnergyModel while a HarvestSource trickles charge back in;
// the moment charge falls to the brownout floor the CPU loses power
// mid-procedure. With a checkpoint policy configured the mote persists a
// Checkpoint image (see checkpoint.go) at safe points and resumes from it
// after the capacitor recovers; without one every outage is a cold boot.
//
// Trace semantics under power mode follow the volatile-commit model: with
// checkpointing enabled, TRACE events accumulate in a volatile RAM window
// and are committed to the durable journal only when a checkpoint is
// taken, so a power failure discards exactly the uncommitted tail (the
// torn partial execution, which the restored mote re-executes and
// re-logs). A PowerMarkID record separates the restored epoch from the
// prefix so offline salvage can discard invocations that straddle the
// outage without touching completed ones. Without checkpointing the PR 3
// semantics are unchanged: the whole journal is durable and an outage
// appends an EpochMarkID cold-boot marker.

// PowerMarkID is the reserved trace ID logged when the machine restores
// from a durable checkpoint after a power failure (warm boot). Unlike
// EpochMarkID (cold boot: all machine state lost), frames open at the
// restored checkpoint DO have their enter events in the durable prefix —
// but the time spent between checkpoint and outage is lost and re-run, so
// their eventual exits carry dead time. Decoders treat such straddling
// invocations as lost partials: discarded from duration samples but
// counted per procedure, because the count itself carries information
// (survival bias) the estimator corrects for.
const PowerMarkID int32 = -2

// HarvestSource models the ambient energy input: the instantaneous
// harvest power, in microjoules per cycle, as a pure function of the
// absolute cycle counter. Implementations must be deterministic —
// package fault builds seeded solar-like sources (diurnal envelope ×
// per-window noise) with random access by cycle.
type HarvestSource interface {
	RateUJPerCycle(cycle uint64) float64
}

// CheckpointPolicy decides when a running mote persists a Checkpoint.
// Checkpoints are taken only at safe points (immediately after a TRACE
// instruction, when no instruction is mid-flight). The zero value
// disables checkpointing: power failures then cold-boot exactly like
// watchdog resets.
type CheckpointPolicy struct {
	// EveryKInvocations checkpoints after every K completed top-level
	// invocations (traced returns at nesting depth <= 1). 0 disables the
	// periodic trigger.
	EveryKInvocations int
	// OnLowChargeFrac checkpoints at the next safe point whenever the
	// capacitor charge falls below this fraction of capacity and there
	// are uncommitted trace events. 0 disables the low-charge trigger.
	OnLowChargeFrac float64
}

// checkpointCostCycles and checkpointCostUJ are the price of writing one
// checkpoint image to non-volatile storage (flash-page-write territory).
const (
	checkpointCostCycles = 512
	checkpointCostUJ     = 4
)

// Enabled reports whether any checkpoint trigger is configured.
func (p CheckpointPolicy) Enabled() bool {
	return p.EveryKInvocations > 0 || p.OnLowChargeFrac > 0
}

// restoreCycles is the boot/restore overhead after recharge.
const restoreCycles = 256

// PowerConfig attaches a harvested-energy supply to the machine. All
// energy quantities are in microjoules; DefaultEnergyModel prices the
// architectural events.
type PowerConfig struct {
	// CapacityUJ is the storage capacitor size (0 = 1000 µJ).
	CapacityUJ float64
	// StartChargeUJ is the initial charge (0 = full capacity).
	StartChargeUJ float64
	// BrownoutFloorUJ is the charge at which the CPU loses power
	// (0 = 2% of capacity).
	BrownoutFloorUJ float64
	// RestartChargeUJ is the charge the capacitor must reach before the
	// mote boots again after a power failure (0 = 60% of capacity).
	// Must exceed the brownout floor or the mote oscillates.
	RestartChargeUJ float64
	// Harvest is the ambient energy input; nil means no harvesting (the
	// mote runs the capacitor down once and never recovers).
	Harvest HarvestSource
	// Checkpoint selects the checkpoint policy (zero value: none).
	Checkpoint CheckpointPolicy
}

func (p PowerConfig) withDefaults() PowerConfig {
	if p.CapacityUJ <= 0 {
		p.CapacityUJ = 1000
	}
	if p.StartChargeUJ <= 0 || p.StartChargeUJ > p.CapacityUJ {
		p.StartChargeUJ = p.CapacityUJ
	}
	if p.BrownoutFloorUJ <= 0 {
		p.BrownoutFloorUJ = p.CapacityUJ * 0.02
	}
	if p.RestartChargeUJ <= p.BrownoutFloorUJ {
		p.RestartChargeUJ = p.BrownoutFloorUJ + p.CapacityUJ*0.6
	}
	if p.RestartChargeUJ > p.CapacityUJ {
		p.RestartChargeUJ = p.CapacityUJ
	}
	return p
}

// powerState is the machine-side capacitor bookkeeping.
type powerState struct {
	cfg    PowerConfig
	charge float64
}

// harvestChunkCycles is the integration step for crediting harvest over
// spans the CPU is not executing (outages, reset dead time). The seeded
// sources are piecewise-constant over windows of the same order, so
// chunked integration is near-exact and, critically, deterministic.
const harvestChunkCycles = 1 << 16

// maxDarkCycles bounds one recharge wait. A mote whose harvest source
// never recovers (e.g. rate 0) would otherwise wait forever; instead the
// dark window is capped and the caller's cycle budget ends the run.
const maxDarkCycles = uint64(1) << 32

// credit adds harvested energy to the capacitor, clamped at capacity,
// and accounts the usable part in Stats.HarvestedUJ. Spill (harvest
// arriving on a full capacitor) is not counted as harvested: the
// completed-invocations-per-harvested-joule metric divides by energy the
// mote could actually bank.
func (p *powerState) credit(m *Machine, uj float64) {
	if uj <= 0 {
		return
	}
	if room := p.cfg.CapacityUJ - p.charge; uj > room {
		uj = room
	}
	if uj > 0 {
		p.charge += uj
		m.stats.HarvestedUJ += uj
	}
}

// harvestSpan credits harvest over [start, start+n) cycles of dead time:
// the capacitor charges while the CPU drains nothing. Used for reset
// outages and restore windows so a brownout during recharge never
// double-counts CPU drain (the regression the fault package pins).
func (p *powerState) harvestSpan(m *Machine, start, n uint64) {
	if p.cfg.Harvest == nil {
		return
	}
	for n > 0 {
		step := uint64(harvestChunkCycles)
		if step > n {
			step = n
		}
		p.credit(m, p.cfg.Harvest.RateUJPerCycle(start)*float64(step))
		start += step
		n -= step
	}
}

// recharge integrates harvest from the current cycle until the capacitor
// reaches the restart threshold, returning the dark-window length in
// cycles (capped at maxDarkCycles).
func (p *powerState) recharge(m *Machine) uint64 {
	var dead uint64
	for p.charge < p.cfg.RestartChargeUJ && dead < maxDarkCycles {
		var rate float64
		if p.cfg.Harvest != nil {
			rate = p.cfg.Harvest.RateUJPerCycle(m.stats.Cycles + dead)
		}
		if rate <= 0 && p.cfg.Harvest == nil {
			// No source at all: nothing will ever arrive.
			return maxDarkCycles
		}
		p.credit(m, rate*harvestChunkCycles)
		dead += harvestChunkCycles
	}
	return dead
}

// ckptsEnabled reports whether the volatile-commit trace model is active.
func (m *Machine) ckptsEnabled() bool {
	return m.power != nil && m.power.cfg.Checkpoint.Enabled()
}

// stepPowered wraps one reference-core instruction with capacitor
// accounting: drain the energy-model delta, credit harvest over the
// instruction's cycles, commit checkpoints at safe points, and fail power
// the instant charge reaches the brownout floor.
func (m *Machine) stepPowered() error {
	p := m.power
	e0 := DefaultEnergyModel().Energy(m.stats)
	c0 := m.stats.Cycles
	t0 := len(m.trace)
	if err := m.stepInstr(); err != nil {
		return err
	}
	drained := DefaultEnergyModel().Energy(m.stats) - e0
	m.stats.DrainedUJ += drained
	if p.cfg.Harvest != nil {
		p.credit(m, p.cfg.Harvest.RateUJPerCycle(c0)*float64(m.stats.Cycles-c0))
	}
	p.charge -= drained
	if len(m.trace) > t0 {
		m.notePoweredTrace()
	}
	if !m.halted && p.charge <= p.cfg.BrownoutFloorUJ {
		m.powerFail()
	}
	return nil
}

// notePoweredTrace runs after a TRACE instruction appended an event: it
// maintains the invocation-depth counter and fires the checkpoint policy
// at this safe point.
func (m *Machine) notePoweredTrace() {
	ev := m.trace[len(m.trace)-1]
	exited := false
	if ev.ID&1 == 0 {
		m.traceDepth++
	} else {
		if m.traceDepth > 0 {
			m.traceDepth--
		}
		exited = true
		// A traced return at depth <= 1 is a completed top-level
		// invocation (depth 1 = inside main's frame).
		if m.traceDepth <= 1 {
			m.invSinceCkpt++
		}
	}
	pol := m.power.cfg.Checkpoint
	if !pol.Enabled() {
		return
	}
	take := false
	if pol.EveryKInvocations > 0 && exited && m.invSinceCkpt >= pol.EveryKInvocations {
		take = true
	}
	if pol.OnLowChargeFrac > 0 && m.power.charge < pol.OnLowChargeFrac*m.power.cfg.CapacityUJ && len(m.trace) > m.durableLen {
		take = true
	}
	if take {
		m.takeCheckpoint()
	}
}

// takeCheckpoint persists the machine state to the durable image, commits
// the volatile trace window, and pays the checkpoint's energy/time price.
func (m *Machine) takeCheckpoint() {
	p := m.power
	c0 := m.stats.Cycles
	m.stats.Cycles += checkpointCostCycles
	cost := checkpointCostUJ + float64(checkpointCostCycles)*DefaultEnergyModel().UJPerCycle
	m.stats.DrainedUJ += cost
	if p.cfg.Harvest != nil {
		p.credit(m, p.cfg.Harvest.RateUJPerCycle(c0)*float64(checkpointCostCycles))
	}
	p.charge -= cost
	m.durableLen = len(m.trace)
	m.ckptImage = m.checkpointNow().encode()
	m.invSinceCkpt = 0
	m.stats.Checkpoints++
}

// powerFail models the capacitor reaching the brownout floor: volatile
// state (including the uncommitted trace window) is lost, the mote sits
// dark until harvest refills the capacitor to the restart threshold, then
// boots — warm from the last durable checkpoint when one decodes cleanly,
// cold otherwise.
func (m *Machine) powerFail() {
	p := m.power
	m.stats.PowerFailures++
	if m.ckptsEnabled() {
		m.stats.LostVolatileEvents += uint64(len(m.trace) - m.durableLen)
		m.trace = m.trace[:m.durableLen]
	}
	dead := p.recharge(m)
	start := m.stats.Cycles
	m.stats.Cycles += dead + restoreCycles
	m.stats.DownCycles += dead + restoreCycles
	p.harvestSpan(m, start+dead, restoreCycles)
	// Watchdog resets scheduled inside the dark window are moot: the CPU
	// they would have reset was already off.
	for m.resetIdx < len(m.cfg.Resets) && m.cfg.Resets[m.resetIdx].AtCycle < m.stats.Cycles {
		m.resetIdx++
	}
	m.bootFromPower()
}

// powerAwareReset handles a scheduled watchdog/brownout reset while on
// harvested power: the outage is dead time during which the capacitor
// keeps charging but the CPU drains nothing (charging CPU drain here
// would double-count the outage — the composition bug the fault package's
// regression test pins). The reboot then goes through the same
// restore-or-cold-boot path as a power failure: the intermittent runtime
// always resumes from its last durable checkpoint when one exists.
func (m *Machine) powerAwareReset(downCycles uint64) {
	start := m.stats.Cycles
	m.stats.Cycles += downCycles
	m.stats.Resets++
	m.stats.DownCycles += downCycles
	m.power.harvestSpan(m, start, downCycles)
	if m.ckptsEnabled() {
		// RAM is cleared by the reset, so the uncommitted window dies with it.
		m.stats.LostVolatileEvents += uint64(len(m.trace) - m.durableLen)
		m.trace = m.trace[:m.durableLen]
	}
	m.bootFromPower()
}

// bootFromPower restores from the durable checkpoint image when possible
// and cold-boots otherwise. A torn or bit-flipped image must never
// restore garbage: the CRC-guarded decoder rejects it and the boot
// degrades to cold (FuzzCheckpointDecode pins the decoder).
func (m *Machine) bootFromPower() {
	if m.ckptsEnabled() && m.ckptImage != nil {
		if ck, err := decodeCheckpoint(m.ckptImage); err == nil && m.restoreFrom(ck) {
			m.stats.Restores++
			if len(m.trace) < m.cfg.MaxTraceEvents {
				m.trace = append(m.trace, TraceEvent{ID: PowerMarkID, Tick: m.Tick()})
			}
			m.durableLen = len(m.trace)
			return
		}
		// Undecodable image: drop it so later boots don't retry it.
		m.ckptImage = nil
	}
	m.clearVolatileState()
	m.traceDepth = 0
	m.invSinceCkpt = 0
	if len(m.trace) < m.cfg.MaxTraceEvents {
		m.trace = append(m.trace, TraceEvent{ID: EpochMarkID, Tick: m.Tick()})
	}
	m.durableLen = len(m.trace)
}

// restoreFrom rebuilds machine state from a decoded checkpoint. It
// reports false when the image does not fit this machine (wrong RAM or
// predictor-table size), which the caller treats like a torn image.
func (m *Machine) restoreFrom(ck *Checkpoint) bool {
	if len(ck.Mem) != len(m.mem) {
		return false
	}
	if m.bimodal != nil {
		if len(ck.Pred) != len(m.bimodal.table) {
			return false
		}
	} else if len(ck.Pred) != 0 {
		return false
	}
	m.pc = ck.PC
	m.sp = ck.SP
	m.regs = ck.Regs
	copy(m.mem, ck.Mem)
	if m.bimodal != nil {
		copy(m.bimodal.table, ck.Pred)
	}
	m.radioBuf = m.radioBuf[:0]
	m.ledState = 0
	m.traceDepth = int(ck.Depth)
	m.invSinceCkpt = int(ck.InvSinceCkpt)
	if tl := int(ck.TraceLen); tl < len(m.trace) {
		m.trace = m.trace[:tl]
	}
	return true
}

// clearVolatileState zeroes everything a power loss or reset destroys:
// CPU registers, RAM, the stack, and peripheral latches. Shared by the
// watchdog reboot path and power-mode cold boots so the two stay
// bit-identical.
func (m *Machine) clearVolatileState() {
	m.pc = 0
	m.sp = int32(m.cfg.RAMWords)
	m.regs = [16]uint16{}
	for i := range m.mem {
		m.mem[i] = 0
	}
	m.radioBuf = m.radioBuf[:0]
	m.ledState = 0
}
