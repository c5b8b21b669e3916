package pipeline

import (
	"reflect"
	"runtime"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/trace"
)

const testProgram = `
func work(v int) int {
	var r int;
	r = 0;
	while (v > 100) {
		v = v - 100;
		r = r + 1;
	}
	if (v > 50) {
		r = r + 10;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 150; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

// TestEstimateStreams drives the streaming estimate stage over a real
// fleet — simulate, uplink, reassemble, batch into rounds, observe in
// parallel — and checks the outcome is well-formed and independent of the
// pool size.
func TestEstimateStreams(t *testing.T) {
	out, err := compile.Build(testProgram, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"gaussian", "uniform", "bursty"}
	specs := make([]fleet.MoteSpec, 3)
	for i := range specs {
		specs[i] = fleet.MoteSpec{ID: uint16(i), Workload: names[i], Seed: 100 + int64(i)*7, ClockOffsetTicks: uint64(i) * 100_000}
	}
	motes, _, err := fleet.SimulateStream(fleet.SimConfig{
		Prog: out.Code, Mote: mote.DefaultConfig(), MaxCycles: 100_000_000, Workers: 3, Link: fleet.LinkConfig{Seed: 99},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["work"]
	perMote := make([]map[int][]float64, len(motes))
	for i, m := range motes {
		perMote[i] = map[int][]float64{pm.Index: m.Durations[pm.Index]}
	}
	rounds := fleet.BatchStreams(perMote, 4)[pm.Index]
	s := Settings{}.WithDefaults()
	model, err := s.Model(out, "work")
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *Stream {
		st := s.Stream("work", model)
		if err := ObserveOn(fleet.NewPool(workers), []*Stream{st}, [][][]float64{rounds}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run(4)
	if st.Probs() == nil {
		t.Fatal("no estimate")
	}
	total := 0
	for _, b := range rounds {
		total += len(b)
	}
	if st.SampleCount() != total {
		t.Fatalf("SampleCount = %d, want %d", st.SampleCount(), total)
	}
	if st.Rounds() < 1 || st.Iterations() < 1 {
		t.Fatalf("no estimation effort recorded: %d rounds, %d iterations", st.Rounds(), st.Iterations())
	}
	// A different pool size must not change any part of the outcome.
	type outcome struct {
		Probs                                    markov.EdgeProbs
		Rounds, Iterations, SampleCount, Trimmed int
		Converged, Confident                     bool
	}
	snap := func(st *Stream) outcome {
		return outcome{st.Probs(), st.Rounds(), st.Iterations(), st.SampleCount(), st.Trimmed(), st.Converged(), st.Confident()}
	}
	if got, want := snap(run(1)), snap(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming estimation is not reproducible across pool sizes:\n1 worker:  %+v\n4 workers: %+v", got, want)
	}
}

// TestBatchOutcomesInCFGOrder runs Batch with its procedures on parallel
// workers and checks that the outcomes come back in CFG order, identical
// to a one-worker run. crc's first branchy procedure has by far the
// largest path model, so it finishes last when run side by side; chain's
// procedures are trusted, so their estimates reach the placement input.
func TestBatchOutcomesInCFGOrder(t *testing.T) {
	crc, _ := apps.ByName("crc")
	for _, a := range []apps.App{crc, apps.CallChain} {
		t.Run(a.Name, func(t *testing.T) {
			src, err := a.Source(300)
			if err != nil {
				t.Fatal(err)
			}
			m := Mote{TickDiv: DefaultTickDiv, MaxCycles: 2_000_000_000, Inputs: Workload(a.Workload, 1)}
			prof, mach, err := m.Execute(src, compile.Options{Instrument: compile.ModeTimestamps})
			if err != nil {
				t.Fatal(err)
			}
			ivs, err := trace.Extract(mach.Trace())
			if err != nil {
				t.Fatal(err)
			}
			ticks := trace.ExclusiveByProc(ivs)
			s := Settings{}.WithDefaults()
			batch := func(procs int) ([]Outcome, map[string]markov.EdgeProbs) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return s.Batch(prof, ticks)
			}

			procs, probs := batch(4)
			var want, got []string
			for _, p := range prof.CFG.Procs {
				if len(p.BranchBlocks()) > 0 {
					want = append(want, p.Name)
				} else if probs[p.Name] == nil {
					t.Errorf("branchless %s has no placeholder", p.Name)
				}
			}
			for _, o := range procs {
				got = append(got, o.Proc.Name)
				if o.Err != nil {
					t.Fatalf("%s: %v", o.Proc.Name, o.Err)
				}
				if _, placed := probs[o.Proc.Name]; placed != (o.Decision == Trusted) {
					t.Errorf("%s: %v, but placed = %v", o.Proc.Name, o.Decision, placed)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("outcomes in order %v, want CFG order %v", got, want)
			}

			type verdict struct {
				Samples  int
				Decision Decision
				Probs    markov.EdgeProbs
			}
			verdicts := func(procs []Outcome) []verdict {
				var v []verdict
				for _, o := range procs {
					v = append(v, verdict{o.Samples, o.Decision, o.Probs})
				}
				return v
			}
			procs1, probs1 := batch(1)
			if !reflect.DeepEqual(verdicts(procs1), verdicts(procs)) || !reflect.DeepEqual(probs1, probs) {
				t.Fatal("Batch differs between GOMAXPROCS 1 and 4")
			}
		})
	}
}
