package station_test

import (
	"reflect"
	"testing"

	"codetomo"
	"codetomo/internal/fault"
	"codetomo/internal/ir"
	"codetomo/internal/mote"
	"codetomo/internal/station"
)

// Frames from motes on harvested power carry power-truncated invocations.
// The station must publish the survival-bias-corrected estimate, exactly
// as RunFleet scores and places it, not the raw completed-sample fit.
func TestSnapshotCorrectsTruncation(t *testing.T) {
	uploads, err := codetomo.FleetUploads(testProgram, codetomo.FleetConfig{
		Config: codetomo.Config{Seed: 5},
		Motes:  4,
		Energy: fault.EnergyConfig{
			HarvestUJPerKCycle: 0.8,
			HarvestNoiseSigma:  0.4,
			CapacityUJ:         60,
			BrownoutFloorUJ:    2,
			RestartChargeUJ:    40,
		},
		Checkpoint: mote.CheckpointPolicy{EveryKInvocations: 4, OnLowChargeFrac: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newStation(t, station.Config{})
	defer s.Close()
	ingestUploads(t, s, uploads)
	snap, err := s.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}

	model, inc, lost := s.ProcStream("work")
	if inc == nil || lost == 0 {
		t.Fatalf("no power-truncated invocations of work reached the station (lost %d)", lost)
	}
	want := model.DebiasTruncation(inc.Probs(), lost, inc.Counts().N())
	if reflect.DeepEqual(want, inc.Probs()) {
		t.Fatal("the correction is a no-op on this traffic; the test cannot tell the difference")
	}
	for _, pm := range snap.Procs {
		if pm.Proc != "work" {
			continue
		}
		if len(pm.Branches) == 0 {
			t.Fatal("work published no estimate")
		}
		for _, b := range pm.Branches {
			edge := [2]ir.BlockID{ir.BlockID(b.From), ir.BlockID(b.To)}
			if b.Prob != want[edge] {
				t.Errorf("edge %d->%d: published %v, want the corrected %v", b.From, b.To, b.Prob, want[edge])
			}
		}
		return
	}
	t.Fatal("work missing from the snapshot")
}
