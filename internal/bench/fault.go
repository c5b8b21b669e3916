package bench

import (
	"fmt"

	codetomo "codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/fault"
	"codetomo/internal/report"
)

// faultMaxCycles bounds each mote's run in the fault experiments: a mote
// that keeps crashing mid-program re-runs from the reset vector, so a
// pathological fault level could otherwise crash-loop for the full default
// budget. The pipeline salvages whatever the trace buffer holds when the
// budget runs out.
const faultMaxCycles = 64_000_000

// faultLevel is one row of the FT1 fault-environment ladder.
type faultLevel struct {
	name      string
	crashMTBF uint64  // mean cycles between watchdog resets (0 = none)
	corrupt   float64 // per-transmission bit-flip probability
}

// FaultRecoverySweep (FT1) contrasts the naive uplink path — CRC left
// unchecked, no retransmission, plain EM — against the hardened one —
// CRC-16 frames, selective-repeat ARQ, outlier-robust estimation with
// confidence-gated placement — as the fault environment worsens. The
// hardened path should hold estimation error near the fault-free baseline
// and never ship a placement slower than the unoptimized binary; the naive
// path is at the channel's mercy.
func FaultRecoverySweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const motes = 4
	perMote := c.Samples / motes
	levels := []faultLevel{
		{"none", 0, 0},
		{"low", 1_000_000, 0.02},
		{"medium", 400_000, 0.10},
		{"high", 150_000, 0.25},
	}
	t := &report.Table{
		Title:  "FT1: fault tolerance — naive uplink vs CRC+ARQ+robust estimation",
		Header: []string{"faults", "resets", "naive MAE", "hard MAE", "hard speedup", "lowconf", "trimmed"},
		Note: fmt.Sprintf("%s, %d motes, %d invocations each; naive = CRC unchecked, no ARQ, plain EM; "+
			"hard = CRC-16, ARQ(3), robust EM with fallback placement", app.Name, motes, perMote),
	}
	common := func(cfg *codetomo.FleetConfig, lv faultLevel) {
		cfg.CorruptProb = lv.corrupt
		if lv.crashMTBF > 0 {
			cfg.Faults = fault.Config{CrashMTBFCycles: lv.crashMTBF, BrownoutProb: 0.2}
		}
	}
	for _, lv := range levels {
		_, naivePE, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) {
			cfg.MaxCycles = faultMaxCycles
			common(cfg, lv)
			cfg.SkipCRC = true
		})
		if err != nil {
			return nil, err
		}
		hardRes, hardPE, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) {
			cfg.MaxCycles = faultMaxCycles
			common(cfg, lv)
			cfg.ARQRetries = 3
			useRobust(cfg)
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(lv.name, report.I(int(hardRes.Fleet.Resets)),
			formatMAE(naivePE), formatMAE(hardPE),
			fmt.Sprintf("%.3fx", hardRes.Speedup()),
			report.I(hardRes.Fleet.LowConfidenceProcs),
			report.I(hardRes.Fleet.TrimmedSamples))
	}
	return t, nil
}

// ARQOverheadSweep (FT2) prices the recovery protocol: as the corruption
// rate climbs, CRC rejection discards more frames and ARQ buys them back
// with retransmissions. The table reports what that costs (resends,
// backoff) and what it preserves (goodput, estimation error).
func ARQOverheadSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const motes = 4
	perMote := c.Samples / motes
	rates := []float64{0, 0.05, 0.10, 0.20, 0.40}
	t := &report.Table{
		Title:  "FT2: ARQ recovery cost vs corruption rate (CRC-16 frames, 3 retries)",
		Header: []string{"corrupt", "rejected", "resent", "recovered", "unrecov", "goodput", "handler MAE"},
		Note: fmt.Sprintf("%s, %d motes, %d invocations each; goodput = distinct packets delivered / frames sent",
			app.Name, motes, perMote),
	}
	for _, rate := range rates {
		res, pe, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) {
			cfg.MaxCycles = faultMaxCycles
			cfg.CorruptProb = rate
			cfg.ARQRetries = 3
			useRobust(cfg)
		})
		if err != nil {
			return nil, err
		}
		st := res.Fleet
		goodput := 0.0
		if st.Link.Sent > 0 {
			goodput = float64(st.Uplink.PacketsDelivered) / float64(st.Link.Sent)
		}
		t.AddRow(report.Pct(rate), report.I(st.Uplink.PacketsCorrupted),
			report.I(st.ARQ.Retransmissions), report.I(st.ARQ.Recovered),
			report.I(st.ARQ.Unrecovered), report.Pct(goodput), formatMAE(pe))
	}
	return t, nil
}
