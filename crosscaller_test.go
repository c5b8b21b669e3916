package codetomo_test

import (
	"reflect"
	"testing"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/bench"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/ir"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// TestCallersAgree feeds one profiled deployment's per-procedure samples
// to the gate-and-estimate path of every caller of the estimation core.
// Run and the bench take the samples as one batch, RunFleet and the
// station as two rounds (epochs) per mote: each mote's delivery is cut in
// half, and each half is decoded as the station's epoch cut leaves it.
// Run, the bench and RunFleet must reach the same trust decision for the
// same reason, and the station must publish the same verdict (its reason
// is pinned against the bench's by TestStationDecisionMatchesBench in the
// station package). The batch callers must produce bit-identical
// probabilities, and so must the streaming callers. Every caller runs with
// the same non-default unroll bound, which keeps crc's path enumeration
// cheap and its coverage low, once as configured by default and once with
// static branch resolution, the setting ctomo, ctfleet and ctstationd all
// take as -static, and each of those under EM, under the robust
// estimator, whose trims run on the sample histograms, and under Moments,
// whose sample moments are a function of the histogram alone.
func TestCallersAgree(t *testing.T) {
	const maxVisits = 4
	crc, _ := apps.ByName("crc")
	for _, e := range []struct {
		suffix string
		est    tomography.Estimator
	}{{"", tomography.EM{}}, {"_robust", tomography.Robust{}}, {"_moments", tomography.Moments{}}} {
		for _, static := range []bool{false, true} {
			for _, a := range []apps.App{apps.CallChain, crc} {
				name := a.Name
				if static {
					name += "_static"
				}
				t.Run(name+e.suffix, func(t *testing.T) { callersAgree(t, a, maxVisits, static, e.est) })
			}
		}
	}
}

func callersAgree(t *testing.T, a apps.App, maxVisits int, static bool, est tomography.Estimator) {
	src, err := a.Source(150)
	if err != nil {
		t.Fatal(err)
	}
	cfg := codetomo.Config{Workload: a.Workload, Seed: 3, MaxVisits: maxVisits, StaticResolve: static, Estimator: est}
	uploads, err := codetomo.FleetUploads(src, codetomo.FleetConfig{Config: cfg, Motes: 3})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}

	// Decode every mote's delivery in two halves as the station's epoch
	// cuts do: the second half on the same window, rebased in place at the
	// first's next sequence number.
	halves := func(up fleet.MoteResult) [2][][]byte {
		h := len(up.Frames) / 2
		return [2][][]byte{up.Frames[:h], up.Frames[h:]}
	}
	ticks := make(map[int][]uint64)
	var epochs []map[int][]uint64
	for _, up := range uploads {
		r := trace.NewReassembler(up.Spec.ID)
		for _, half := range halves(up) {
			for _, f := range half {
				if err := r.AddFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			ivs, _ := r.Recover()
			epoch := trace.ExclusiveByProc(ivs)
			r.Reset(up.Spec.ID, r.NextSeq())
			for p, tk := range epoch {
				ticks[p] = append(ticks[p], tk...)
			}
			epochs = append(epochs, epoch)
		}
	}
	samples := make(fleet.Samples, len(prof.CFG.Procs))
	for p := range samples {
		for _, epoch := range epochs {
			samples[p] = append(samples[p], tomography.CountSamples(trace.DurationsCycles(epoch[p], pipeline.DefaultTickDiv)))
		}
	}

	run := codetomo.EstimateBatch(cfg, prof, ticks)
	bc := bench.DefaultConfig()
	bc.MaxVisits = maxVisits
	bs := bc.Settings()
	bs.StaticResolve, bs.Estimator = static, est
	harness, _ := bs.Batch(prof, ticks)
	fleet, err := codetomo.EstimateStreams(codetomo.FleetConfig{Config: cfg}, prof, samples)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := station.New(station.Config{Program: src, Settings: pipeline.Settings{MaxVisits: maxVisits, StaticResolve: static, Estimator: est}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, up := range uploads {
		for _, half := range halves(up) {
			for _, f := range half {
				if err := srv.IngestFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := srv.CutEpoch(); err != nil {
				t.Fatal(err)
			}
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
		for caller, m := range map[string]*tomography.Model{"Run": r.Model, "bench": harness[i].Model, "RunFleet": fleet[i].Model} {
			if m != nil && (m.Envelope != nil) != static {
				t.Errorf("%s: %s built its model with static envelope %v, want %v", name, caller, m.Envelope != nil, static)
			}
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
}
