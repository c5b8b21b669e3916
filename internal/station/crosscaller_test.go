package station_test

import (
	"testing"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/bench"
	"codetomo/internal/compile"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// TestStationDecisionMatchesBench feeds the deployment of the root
// package's TestCallersAgree to the station, one epoch per mote, and to
// the bench's batch path. Each procedure must get the same trust decision
// for the same reason on both; TestCallersAgree pins the bench's decision
// to Run's and RunFleet's. Both run under EM and under a robust estimator
// whose near-zero trim width discards most samples, each with and without
// static branch resolution, so every reason the deployment can reach is
// compared: the robust runs reach LowConfidence.
func TestStationDecisionMatchesBench(t *testing.T) {
	const maxVisits = 4
	crc, _ := apps.ByName("crc")
	seen := make(map[pipeline.Decision]bool)
	for _, est := range []tomography.Estimator{tomography.EM{}, tomography.Robust{Config: tomography.RobustConfig{OutlierWidth: 1e-9}}} {
		for _, static := range []bool{false, true} {
			for _, a := range []apps.App{apps.CallChain, crc} {
				name := a.Name
				if static {
					name += "_static"
				}
				if _, robust := est.(tomography.Robust); robust {
					name += "_robust"
				}
				t.Run(name, func(t *testing.T) {
					for _, d := range stationDecisionMatchesBench(t, a, maxVisits, static, est) {
						seen[d] = true
					}
				})
			}
		}
	}
	if !seen[pipeline.LowConfidence] {
		t.Errorf("no procedure reached %v; decisions seen: %v", pipeline.LowConfidence, seen)
	}
}

// stationDecisionMatchesBench runs one deployment through the station and
// the bench and returns the bench's decisions.
func stationDecisionMatchesBench(t *testing.T, a apps.App, maxVisits int, static bool, est tomography.Estimator) []pipeline.Decision {
	src, err := a.Source(150)
	if err != nil {
		t.Fatal(err)
	}
	uploads, err := codetomo.FleetUploads(src, codetomo.FleetConfig{
		Config: codetomo.Config{Workload: a.Workload, Seed: 3, MaxVisits: maxVisits},
		Motes:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(map[int][]uint64)
	for _, up := range uploads {
		r := trace.NewReassembler(up.Spec.ID)
		for _, f := range up.Frames {
			if err := r.AddFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		ivs, _ := r.Recover()
		for p, tk := range trace.ExclusiveByProc(ivs) {
			ticks[p] = append(ticks[p], tk...)
		}
	}
	bc := bench.DefaultConfig()
	bc.MaxVisits = maxVisits
	bs := bc.Settings()
	bs.StaticResolve, bs.Estimator = static, est
	harness, _ := bs.Batch(prof, ticks)

	srv, err := station.New(station.Config{Program: src, Settings: pipeline.Settings{MaxVisits: maxVisits, StaticResolve: static, Estimator: est}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, up := range uploads {
		for _, f := range up.Frames {
			if err := srv.IngestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.CutEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if len(harness) == 0 {
		t.Fatal("no branchy procedures")
	}
	var decisions []pipeline.Decision
	for _, h := range harness {
		t.Logf("%s: %v", h.Proc.Name, h.Decision)
		if got := srv.ProcDecision(h.Proc.Name); got != h.Decision {
			t.Errorf("%s: station decided %v, bench %v", h.Proc.Name, got, h.Decision)
		}
		decisions = append(decisions, h.Decision)
	}
	return decisions
}
