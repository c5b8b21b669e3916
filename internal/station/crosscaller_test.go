package station_test

import (
	"testing"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/bench"
	"codetomo/internal/compile"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
	"codetomo/internal/trace"
)

// TestStationDecisionMatchesBench feeds the deployment of the root
// package's TestCallersAgree to the station, one epoch per mote, and to
// the bench's batch path. Each procedure must get the same trust decision
// for the same reason on both; TestCallersAgree pins the bench's decision
// to Run's and RunFleet's.
func TestStationDecisionMatchesBench(t *testing.T) {
	const maxVisits = 4
	crc, _ := apps.ByName("crc")
	for _, a := range []apps.App{apps.CallChain, crc} {
		t.Run(a.Name, func(t *testing.T) {
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
			harness, _ := bc.Settings().Batch(prof, ticks)

			srv, err := station.New(station.Config{Program: src, Settings: pipeline.Settings{MaxVisits: maxVisits}})
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
			for _, h := range harness {
				if got := srv.ProcDecision(h.Proc.Name); got != h.Decision {
					t.Errorf("%s: station decided %v, bench %v", h.Proc.Name, got, h.Decision)
				}
			}
		})
	}
}
