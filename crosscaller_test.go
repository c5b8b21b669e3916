package codetomo_test

import (
	"reflect"
	"testing"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/bench"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
	"codetomo/internal/trace"
)

// TestCallersAgree feeds one profiled deployment's per-procedure samples
// to the gate-and-estimate path of every caller of the estimation core.
// Run and the bench take the samples as one batch, RunFleet and the
// station as one round (epoch) per mote. Run, the bench and RunFleet must
// reach the same trust decision for the same reason, and the station must
// publish the same verdict (its reason is pinned against the bench's by
// TestStationDecisionMatchesBench in the station package). The batch
// callers must produce bit-identical probabilities, and so must the
// streaming callers. Every caller runs with the same non-default unroll
// bound, which keeps crc's path enumeration cheap and its coverage low.
func TestCallersAgree(t *testing.T) {
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

			// Decode every mote's delivery as the station's shards do.
			ticks := make(map[int][]uint64)
			rounds := make(map[int][][]float64)
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
					rounds[p] = append(rounds[p], trace.DurationsCycles(tk, pipeline.DefaultTickDiv))
				}
			}

			run := codetomo.EstimateBatch(codetomo.Config{MaxVisits: maxVisits}, prof, ticks)
			bc := bench.DefaultConfig()
			bc.MaxVisits = maxVisits
			harness, _ := bc.Settings().Batch(prof, ticks)
			fleet, err := codetomo.EstimateStreams(codetomo.FleetConfig{Config: codetomo.Config{MaxVisits: maxVisits}}, prof, rounds)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := station.New(station.Config{Program: src, MaxVisits: maxVisits})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for i := range uploads {
				if _, _, err := srv.IngestUploads(uploads[i : i+1]); err != nil {
					t.Fatal(err)
				}
				if _, err := srv.CutEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			served := make(map[string]station.ProcModel)
			for _, pm := range srv.Latest().Procs {
				served[pm.Proc] = pm
			}

			if len(run) == 0 || len(harness) != len(run) || len(fleet) != len(run) {
				t.Fatalf("procedure counts differ: run %d, bench %d, fleet %d", len(run), len(harness), len(fleet))
			}
			for i, r := range run {
				name := r.Proc.Name
				st := served[name]
				t.Logf("%s: %v (%d samples)", name, r.Decision, r.Samples)
				if harness[i].Decision != r.Decision || fleet[i].Decision != r.Decision {
					t.Errorf("%s: decisions differ: Run %v, bench %v, RunFleet %v",
						name, r.Decision, harness[i].Decision, fleet[i].Decision)
				}
				if st.Trusted != (r.Decision == pipeline.Trusted) {
					t.Errorf("%s: station Trusted = %v, Run decided %v", name, st.Trusted, r.Decision)
				}
				if !reflect.DeepEqual(harness[i].Probs, r.Probs) {
					t.Errorf("%s: bench probabilities differ from Run's", name)
				}
				if fleet[i].Probs == nil {
					continue
				}
				if len(st.Branches) == 0 {
					t.Errorf("%s: station published no estimate", name)
				}
				for _, b := range st.Branches {
					if p := fleet[i].Probs[[2]ir.BlockID{ir.BlockID(b.From), ir.BlockID(b.To)}]; p != b.Prob {
						t.Errorf("%s edge %d->%d: station %v, RunFleet %v", name, b.From, b.To, b.Prob, p)
					}
				}
			}
		})
	}
}
