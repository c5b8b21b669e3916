// Package fleet simulates a deployed sensor network running a Code
// Tomography measurement campaign: N motes execute the same compiled
// program under heterogeneous workloads and unsynchronized clocks, batch
// their TRACE logs into radio packets, and upload them over a lossy link
// to a base station that reassembles the per-mote streams and runs
// streaming estimation over the merged fleet samples.
//
// Everything here is deterministic for a fixed seed: motes simulate
// independently (pure per-mote state, per-mote derived RNGs), results are
// merged in mote-ID order, and the concurrency knobs (worker pool size,
// GOMAXPROCS) change only wall time, never results.
package fleet

import (
	"errors"
	"fmt"

	"codetomo/internal/fault"
	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// MoteSpec describes one mote of the deployment.
type MoteSpec struct {
	// ID is the radio identity stamped into uplink packets.
	ID uint16
	// Workload names the input regime this mote observes (workload.Named).
	Workload string
	// Seed drives this mote's sensor and entropy streams.
	Seed int64
	// ClockOffsetTicks skews this mote's timer, modeling unsynchronized
	// clocks across the deployment.
	ClockOffsetTicks uint64
}

// SimConfig configures a deployment simulation.
type SimConfig struct {
	// Prog is the compiled (instrumented) program every mote runs.
	Prog []isa.Instr
	// Mote is the base machine configuration. Sensor, Entropy, and
	// ClockOffsetTicks are overridden per mote from its spec. The
	// Predictor must be stateless: a TrainablePredictor carries mutable
	// per-branch state that cannot be shared across concurrent motes.
	Mote mote.Config
	// MaxCycles bounds each mote's run.
	MaxCycles uint64
	// Workers bounds how many motes simulate concurrently (default 4).
	Workers int
	// Link is the radio channel every mote uploads through.
	Link LinkConfig
	// Faults is the fault environment: crash/reboot schedules and sensor
	// faults, derived per mote from the fault seed. The zero value is a
	// healthy deployment.
	Faults fault.Config
	// Energy, when enabled, powers every mote from a harvesting capacitor
	// (fault.EnergyConfig): execution browns out wherever the program's
	// own energy consumption drains the charge, not on a wall-clock
	// schedule. Composes with Faults — watchdog windows become dead time
	// during which harvest continues.
	Energy fault.EnergyConfig
	// Checkpoint is the checkpoint/restore policy motes run under Energy
	// (ignored otherwise). The zero value cold-boots on every outage.
	Checkpoint mote.CheckpointPolicy
	// Rounds is the number of uplink rounds each mote's samples are split
	// into (0 = one round; see Samples).
	Rounds int
	// KeepUpload retains each mote's delivered frames and its ground-truth
	// branch stats on its MoteResult (for forwarding to a real base station
	// over the wire, and scoring what it estimates); by default both are
	// dropped the moment the mote is reduced — the point of streaming.
	KeepUpload bool
}

// moteConfig derives one mote's machine configuration from its spec: the
// base machine shape plus the spec's sensor/entropy streams (the worker's,
// reseeded for this mote, and its regime's sensor, reset), clock skew, and
// the fault/energy environment keyed by the mote identity.
func (w *streamWorker) moteConfig(cfg SimConfig, spec MoteSpec) (mote.Config, error) {
	w.sensor.Reseed(spec.Seed)
	sensor, ok := w.sensors[spec.Workload]
	if !ok {
		if sensor, ok = workload.Named(spec.Workload, w.sensor); !ok {
			return mote.Config{}, fmt.Errorf("unknown workload %q", spec.Workload)
		}
		w.sensors[spec.Workload] = sensor
	}
	sensor.Reset()
	mc := cfg.Mote
	mc.Sensor = sensor
	w.entropy.Reseed(spec.Seed + 7919)
	mc.Entropy = w.entropyPort
	mc.ClockOffsetTicks = spec.ClockOffsetTicks
	if cfg.Faults.Enabled() {
		mc.Resets = cfg.Faults.Resets(cfg.MaxCycles, int64(spec.ID))
		mc.Sensor = cfg.Faults.WrapSensor(mc.Sensor, int64(spec.ID))
	}
	if cfg.Energy.Enabled() {
		mc.Power = cfg.Energy.Power(int64(spec.ID), cfg.Checkpoint)
	}
	return mc, nil
}

// runMachine executes one mote's measurement campaign on an already
// configured machine, tolerating the stops a hostile environment is
// expected to produce.
func runMachine(m *mote.Machine, cfg SimConfig) error {
	if err := m.Run(cfg.MaxCycles); err != nil {
		// Under fault injection or harvested power a mote that never
		// finishes its campaign — crash-looping past the cycle budget,
		// stalled on an empty capacitor, or filling the trace buffer
		// re-running work — is an expected outcome, not a failure: the
		// base station works with whatever was logged before the window
		// closed. Anything else (or any error on a healthy fleet) is a
		// real bug and aborts.
		expected := (cfg.Faults.Enabled() || cfg.Energy.Enabled()) &&
			(errors.Is(err, mote.ErrCycleBudget) || errors.Is(err, mote.ErrTraceOverflow))
		if !expected {
			return err
		}
	}
	return nil
}

// uplink packetizes a finished machine's trace into the link's packet list
// and pushes it through the radio channel into the link and the worker's
// receive window, which it leaves holding the mote's deliveries and
// reassembly. Under KeepUpload every delivery then carries its bytes,
// which alias the link's arenas.
func (w *streamWorker) uplink(m *mote.Machine, cfg SimConfig, spec MoteSpec) (ls LinkStats, ast ARQStats, eventsLogged int, err error) {
	events := m.Trace()
	pkts := trace.AppendPackets(w.link.pkts[:0], spec.ID, events, cfg.Link.EventsPerPacket)
	// The channel RNG derives from the link seed and the mote identity so
	// each mote sees an independent but reproducible channel.
	w.linkRNG.Reseed(cfg.Link.Seed + int64(spec.ID)*6151 + 1)
	w.rx.Reset(spec.ID, 0)
	ls, ast, err = w.link.arq(cfg.Link, pkts, w.linkRNG, w.rx)
	if cfg.KeepUpload {
		w.link.encodeClean()
	}
	return ls, ast, len(events), err
}

// MoteEnergyUJ prices one mote's run in microjoules: the capacitor drain
// when the mote ran from harvested power (which already excludes dead
// time), the default energy model's price of the run otherwise.
func MoteEnergyUJ(s mote.Stats) float64 {
	if s.DrainedUJ > 0 {
		return s.DrainedUJ
	}
	return mote.DefaultEnergyModel().Energy(s)
}

// MergeBranchStats sums per-branch ground-truth outcome counts across the
// fleet's retained uploads (SimConfig.KeepUpload), keyed by branch
// address; every mote runs the same binary, so addresses line up. The
// result is the fleet oracle.
func MergeBranchStats(uploads []MoteResult) map[int32]*mote.BranchStat {
	merged := make(map[int32]*mote.BranchStat)
	for _, up := range uploads {
		for pc, st := range up.BranchStats {
			m := merged[pc]
			if m == nil {
				m = &mote.BranchStat{}
				merged[pc] = m
			}
			m.Taken += st.Taken
			m.NotTaken += st.NotTaken
			m.Mispred += st.Mispred
		}
	}
	return merged
}
