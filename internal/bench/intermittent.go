package bench

import (
	"fmt"

	codetomo "codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/fault"
	"codetomo/internal/mote"
	"codetomo/internal/report"
)

// ckptPolicy is one column family of the IN1 sweep.
type ckptPolicy struct {
	name string
	pol  mote.CheckpointPolicy
}

// IntermittentSweep (IN1) runs the fleet on harvested power across a
// ladder of harvest rates and checkpoint policies. The CPU draws ~1.35 µJ
// per kcycle, so rates below that force a duty cycle: motes brown out
// mid-procedure and either cold-boot (no checkpoints — every outage
// restarts the program from the reset vector) or restore the last
// checkpoint image. The table tracks what intermittence costs (power
// failures, invocations lost mid-execution, completion rate), whether the
// estimator survives it (MAE with the truncation debias active), and the
// figure of merit a deployment actually optimizes: completed invocations
// per harvested joule, measured and predicted for the optimized layout.
func IntermittentSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const motes = 4
	perMote := c.Samples / motes
	rates := []float64{0.5, 0.8, 1.2, 2.0}
	policies := []ckptPolicy{
		{"none", mote.CheckpointPolicy{}},
		{"every-4", mote.CheckpointPolicy{EveryKInvocations: 4}},
		{"low-charge", mote.CheckpointPolicy{OnLowChargeFrac: 0.25}},
	}
	t := &report.Table{
		Title: "IN1: intermittent execution — completion and estimation vs harvest rate and checkpoint policy",
		Header: []string{"harvest", "policy", "pwrfail", "ckpts", "lost", "completion",
			"handler MAE", "speedup", "compl/J", "pred/J"},
		Note: fmt.Sprintf("%s, %d motes, %d invocations each; harvest in µJ/kcycle (CPU draw ~1.35); "+
			"lost = power-truncated invocations; compl/J = completed invocations per harvested joule, "+
			"pred/J = same extrapolated to the optimized layout. Without checkpoints every outage "+
			"cold-boots the program from the start, so those motes replay invocations until the cycle "+
			"budget runs out — completed counts include the re-executed work", app.Name, motes, perMote),
	}
	for _, rate := range rates {
		for _, p := range policies {
			res, pe, err := c.runFleet(app, motes, perMote, func(cfg *codetomo.FleetConfig) {
				cfg.MaxCycles = faultMaxCycles
				cfg.Energy = fault.EnergyConfig{
					HarvestUJPerKCycle: rate,
					HarvestNoiseSigma:  0.4,
					CapacityUJ:         60,
					BrownoutFloorUJ:    2,
					RestartChargeUJ:    40,
					Seed:               c.Seed + 1,
				}
				cfg.Checkpoint = p.pol
				useRobust(cfg)
			})
			if err != nil {
				return nil, err
			}
			st := res.Fleet
			complCell, perJ, predJ := "n/a", "n/a", "n/a"
			if in := res.Intermittence; in != nil {
				complCell = report.Pct(in.CompletionRate)
				perJ = report.F(in.CompletedPerJoule, 0)
				predJ = report.F(in.PredictedCompletedPerJoule, 0)
			}
			t.AddRow(fmt.Sprintf("%.1f", rate), p.name,
				report.I(st.PowerFailures), report.I(st.Checkpoints),
				report.I(st.Uplink.LostPartials), complCell, formatMAE(pe),
				fmt.Sprintf("%.3fx", res.Speedup()), perJ, predJ)
		}
	}
	return t, nil
}
