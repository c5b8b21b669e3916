package pipeline

import (
	"reflect"
	"testing"

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
	uploads, err := fleet.Simulate(fleet.SimConfig{
		Prog: out.Code, Mote: mote.DefaultConfig(), MaxCycles: 100_000_000, Workers: 3, Link: fleet.LinkConfig{Seed: 99},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["work"]
	perMote := make([]map[int][]float64, len(uploads))
	for i, up := range uploads {
		r := trace.NewReassembler(up.Spec.ID)
		for _, f := range up.Frames {
			if err := r.AddFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		ivs, _ := r.Recover()
		perMote[i] = map[int][]float64{pm.Index: trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], 8)}
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
