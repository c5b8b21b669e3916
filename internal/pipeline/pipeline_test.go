package pipeline

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
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
	var samples fleet.Samples
	_, err = fleet.SimulateSamplesOn(fleet.NewPool(3), fleet.SimConfig{
		Prog: out.Code, Mote: mote.DefaultConfig(), MaxCycles: 100_000_000, Link: fleet.LinkConfig{Seed: 99}, Rounds: 4,
	}, specs, func(_ int, _ []fleet.MoteResult, s fleet.Samples) error {
		samples.Merge(s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := samples[out.Meta.ProcByName["work"].Index]
	s := Settings{}.WithDefaults()
	model, err := s.Model(out, "work")
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *tomography.Incremental {
		o := Outcome{Proc: model.Proc, Index: out.Meta.ProcByName["work"].Index}
		s.Stream(&o, model)
		if o.Model != model || o.Stream == nil {
			t.Fatal("Stream did not set the outcome's model and stream")
		}
		if err := ObserveOn(fleet.NewPool(workers), []*Outcome{&o}, [][]tomography.SampleCounts{rounds}); err != nil {
			t.Fatal(err)
		}
		return o.Stream
	}
	st := run(4)
	if st.Probs() == nil {
		t.Fatal("no estimate")
	}
	total := 0
	for _, b := range rounds {
		total += b.N()
	}
	if st.Counts().N() != total {
		t.Fatalf("Counts().N() = %d, want %d", st.Counts().N(), total)
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
	snap := func(st *tomography.Incremental) outcome {
		return outcome{st.Probs(), st.Rounds(), st.Iterations(), st.Counts().N(), st.Trimmed(), st.Converged(), st.Confident()}
	}
	if got, want := snap(run(1)), snap(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming estimation is not reproducible across pool sizes:\n1 worker:  %+v\n4 workers: %+v", got, want)
	}
}

// TestBatchOutcomesInCFGOrder runs Batch with its procedures on parallel
// workers and checks that the outcomes come back in CFG order, each with
// its metadata index and a stream exactly when the sample gate admitted
// it, identical to a one-worker run. crc's first branchy procedure has by far the
// largest path model, so it finishes last when run side by side; chain's
// procedures are trusted, so their estimates reach the placement input.
func TestBatchOutcomesInCFGOrder(t *testing.T) {
	crc, _ := apps.ByName("crc")
	for _, a := range []apps.App{crc, apps.CallChain} {
		t.Run(a.Name, func(t *testing.T) {
			prof, ticks := profileApp(t, a)
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
				if want := prof.Meta.ProcByName[o.Proc.Name].Index; o.Index != want {
					t.Errorf("%s: Index = %d, want %d", o.Proc.Name, o.Index, want)
				}
				admitted := o.Decision != TooFewSamples && o.Decision != LowCoverage && o.Decision != NoModel
				if (o.Stream != nil) != admitted {
					t.Errorf("%s: %v, but has a stream = %v", o.Proc.Name, o.Decision, o.Stream != nil)
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

// profileApp profiles 300 invocations of a on a timestamping build and
// returns the build and its exclusive tick counts by procedure index.
func profileApp(t *testing.T, a apps.App) (*compile.Output, map[int][]uint64) {
	t.Helper()
	src, err := a.Source(300)
	if err != nil {
		t.Fatal(err)
	}
	m := Mote{TickDiv: DefaultTickDiv, MaxCycles: DefaultMaxCycles, Inputs: Workload(a.Workload, 1)}
	prof, mach, err := m.Execute(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := trace.Extract(mach.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return prof, trace.ExclusiveByProc(ivs)
}

// TestBatchOrderInvariant requires Batch to depend on each procedure's
// sample multiset alone: the ticks in reverse of the order they were
// measured must give identical outcomes and placement input under every
// estimator, Moments included.
func TestBatchOrderInvariant(t *testing.T) {
	prof, ticks := profileApp(t, apps.CallChain)
	reversed := make(map[int][]uint64, len(ticks))
	for p, tk := range ticks {
		reversed[p] = slices.Clone(tk)
		slices.Reverse(reversed[p])
	}
	for _, est := range []tomography.Estimator{tomography.EM{}, tomography.Robust{}, tomography.Moments{}, tomography.Histogram{}} {
		s := Settings{Estimator: est}.WithDefaults()
		procs, probs := s.Batch(prof, ticks)
		rprocs, rprobs := s.Batch(prof, reversed)
		if !reflect.DeepEqual(rprocs, procs) || !reflect.DeepEqual(rprobs, probs) {
			t.Errorf("%s: Batch on the reversed ticks differs from Batch in measured order", est.Name())
		}
		trusted := 0
		for _, o := range procs {
			if o.Decision == Trusted {
				trusted++
			}
		}
		if trusted == 0 {
			t.Errorf("%s: no procedure trusted; the comparison covers no estimate", est.Name())
		}
	}
}

// TestMeasureReusesUnchangedImage checks both arms of Measure. A plan that
// leaves the placed image word for word equal to the original is not run
// again: the baseline's mote comes back as after, and inputs are drawn
// once. A plan whose layout moves a block runs on a mote of its own, and
// the output check still compares that run with the baseline.
func TestMeasureReusesUnchangedImage(t *testing.T) {
	orig, err := compile.Build(testProgram, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reverse work's non-entry blocks.
	moved := layout.Plan{Layouts: map[string][]ir.BlockID{}}
	for _, p := range orig.CFG.Procs {
		if p.Name != "work" {
			continue
		}
		order := []ir.BlockID{p.Entry}
		for i := len(p.Blocks) - 1; i >= 0; i-- {
			if ir.BlockID(i) != p.Entry {
				order = append(order, ir.BlockID(i))
			}
		}
		moved.Layouts[p.Name] = order
	}
	// newMote counts its input draws. Under drift every draw has a seed of
	// its own, so a second run of the program prints different output.
	newMote := func(drift bool) (Mote, *atomic.Int64) {
		draws := new(atomic.Int64)
		return Mote{TickDiv: DefaultTickDiv, MaxCycles: DefaultMaxCycles, Inputs: func() (mote.SampleSource, mote.SampleSource, error) {
			seed := int64(1)
			if n := draws.Add(1); drift {
				seed += n
			}
			return Workload("gaussian", seed)()
		}}, draws
	}

	t.Run("unchanged", func(t *testing.T) {
		m, draws := newMote(true)
		before, after, err := m.Measure(testProgram, m.Baseline(testProgram), layout.Plan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after != before || draws.Load() != 1 {
			t.Fatalf("unchanged image: after is the baseline = %v, %d input draws; want the baseline and 1 draw", after == before, draws.Load())
		}
	})
	t.Run("moved", func(t *testing.T) {
		m, draws := newMote(false)
		before, after, err := m.Measure(testProgram, m.Baseline(testProgram), moved, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after == before || draws.Load() != 2 || after.Stats().Instructions == 0 {
			t.Fatalf("moved block: after is the baseline = %v, %d input draws, %d instructions run; want a run of its own",
				after == before, draws.Load(), after.Stats().Instructions)
		}
		if after.Stats().TakenBranches == before.Stats().TakenBranches {
			t.Fatal("moved block: after took as many branches as the baseline; the image did not change")
		}
		m, _ = newMote(true)
		if _, _, err := m.Measure(testProgram, m.Baseline(testProgram), moved, nil); !errors.Is(err, ErrOutputChanged) {
			t.Fatalf("moved block on drifting inputs: err = %v, want ErrOutputChanged", err)
		}
	})
}
