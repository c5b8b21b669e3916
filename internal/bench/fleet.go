package bench

import (
	"fmt"

	codetomo "codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/report"
	"codetomo/internal/tomography"
)

// fleetApp is the deployment benchmark: sense is the canonical
// sample-and-filter handler and the one every fleet test exercises.
const fleetApp = "sense"

// fleetConfig is the fleet pipeline configuration for a deployment of
// app under the bench's knobs.
func (c Config) fleetConfig(app apps.App, motes int) codetomo.FleetConfig {
	return codetomo.FleetConfig{
		Config: codetomo.Config{
			Workload:  app.Workload,
			Seed:      c.Seed,
			TickDiv:   c.TickDiv,
			Predictor: c.Predictor,
			MaxCycles: c.MaxCycles,
			MaxVisits: c.MaxVisits,
		},
		Motes: motes,
	}
}

// useRobust switches cfg to the outlier-trimmed robust estimator with
// confidence-gated placement: EM with its kernel at the timer tick, every
// other knob at its default.
func useRobust(cfg *codetomo.FleetConfig) {
	cfg.Estimator = tomography.Robust{Config: tomography.RobustConfig{
		EM: tomography.EMConfig{KernelHalfWidth: float64(cfg.TickDiv)},
	}}
}

// formatMAE renders an estimate's error for a table: "fallback" when the
// model was untrusted, starred when the robust estimator flagged it low
// confidence.
func formatMAE(pe *codetomo.ProcEstimate) string {
	if pe.Fallback {
		return "fallback"
	}
	s := fmt.Sprintf("%.4f", pe.MAE)
	if pe.LowConfidence {
		s += "*"
	}
	return s
}

// runFleet drives the full fleet pipeline — N motes, lossy uplink,
// streaming estimation, placement — under a caller-mutated config and
// returns the handler's estimate alongside the whole result.
func (c Config) runFleet(app apps.App, motes, perMote int, mut func(*codetomo.FleetConfig)) (*codetomo.FleetResult, *codetomo.ProcEstimate, error) {
	src, err := app.Source(perMote)
	if err != nil {
		return nil, nil, err
	}
	cfg := c.fleetConfig(app, motes)
	mut(&cfg)
	res, err := codetomo.RunFleet(src, cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range res.Estimates {
		if res.Estimates[i].Proc == app.Handler {
			return res, &res.Estimates[i], nil
		}
	}
	return nil, nil, fmt.Errorf("bench: %s: handler %q not estimated", app.Name, app.Handler)
}

// FleetLossSweep reports estimation quality as the uplink degrades: the
// loss-tolerant reassembly discards truncated invocations rather than
// biasing the surviving samples, so MAE should stay near the lossless
// figure while the sample count shrinks.
func FleetLossSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const motes = 4
	perMote := c.Samples / motes
	drops := []float64{0, 0.05, 0.10, 0.20, 0.40}
	t := &report.Table{
		Title:  "FL1: estimation error vs. packet loss (fleet uplink)",
		Header: []string{"drop", "samples", "discarded", "handler MAE", "mispred reduction"},
		Note: fmt.Sprintf("%s, %d motes, %d invocations each, tick=%d cycles",
			app.Name, motes, perMote, c.TickDiv),
	}
	for _, drop := range drops {
		res, pe, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) { cfg.DropProb = drop })
		if err != nil {
			return nil, err
		}
		if pe.Fallback {
			t.AddRow(report.Pct(drop), report.I(pe.SampleCount), report.I(res.Fleet.Uplink.InvocationsDiscarded), "fallback", "-")
			continue
		}
		t.AddRow(report.Pct(drop), report.I(pe.SampleCount),
			report.I(res.Fleet.Uplink.InvocationsDiscarded),
			fmt.Sprintf("%.4f", pe.MAE), report.Pct(res.MispredictReduction()))
	}
	return t, nil
}

// FleetSizeSweep reports estimation quality as the deployment grows at a
// fixed per-mote sample budget: more motes means more merged samples at
// the base station, so MAE should fall with fleet size even under a
// lossy channel.
func FleetSizeSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const drop = 0.20
	perMote := c.Samples / 4
	sizes := []int{1, 2, 4, 8}
	t := &report.Table{
		Title:  "FL2: estimation error vs. fleet size (fixed per-mote budget)",
		Header: []string{"motes", "samples", "handler MAE", "rounds", "mispred reduction"},
		Note: fmt.Sprintf("%s, %d invocations per mote, %s packet loss, tick=%d cycles",
			app.Name, perMote, report.Pct(drop), c.TickDiv),
	}
	for _, motes := range sizes {
		res, pe, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) { cfg.DropProb = drop })
		if err != nil {
			return nil, err
		}
		if pe.Fallback {
			t.AddRow(report.I(motes), report.I(pe.SampleCount), "fallback", report.I(res.Fleet.Rounds), "-")
			continue
		}
		t.AddRow(report.I(motes), report.I(pe.SampleCount),
			fmt.Sprintf("%.4f", pe.MAE), report.I(res.Fleet.Rounds),
			report.Pct(res.MispredictReduction()))
	}
	return t, nil
}
