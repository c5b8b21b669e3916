// Event detection under a bursty environment: the scenario the paper's
// introduction motivates. A hysteresis detector's branch behaviour depends
// entirely on the field's event statistics; this example estimates those
// branch probabilities with all three tomography estimators and compares
// them against the simulator's ground truth.
//
//	go run ./examples/eventdetection
package main

import (
	"fmt"
	"log"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

const tickDiv = 8

func main() {
	app, _ := apps.ByName("eventdetect")
	src, err := app.Source(4000)
	if err != nil {
		log.Fatal(err)
	}

	// Build with timestamp instrumentation and run under Poisson event
	// bursts (5% event starts, mean burst of 8 readings).
	field := pipeline.Mote{TickDiv: tickDiv, Predictor: mote.StaticNotTaken{}, MaxCycles: pipeline.DefaultMaxCycles,
		Inputs: func() (mote.SampleSource, mote.SampleSource, error) {
			return workload.NewPoissonEvents(stats.NewRNG(99), 0.05, 8), nil, nil
		}}
	out, m, err := field.Execute(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		log.Fatal(err)
	}

	// Extract the handler's end-to-end durations — the only measurement
	// the estimators see.
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		log.Fatal(err)
	}
	pm := out.Meta.ProcByName[app.Handler]
	ticks := trace.ExclusiveByProc(ivs)[pm.Index]
	samples := trace.DurationsCycles(ticks, tickDiv)
	fmt.Printf("collected %d duration samples of %s (quantized to %d-cycle ticks)\n\n",
		len(samples), app.Handler, tickDiv)

	model, err := pipeline.Settings{Predictor: field.Predictor}.WithDefaults().Model(out, app.Handler)
	if err != nil {
		log.Fatal(err)
	}
	truth := profile.OracleProbs(pm, model.Proc, m.BranchStats())

	estimators := []tomography.Estimator{
		tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: tickDiv}},
		tomography.Moments{},
		tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: tickDiv}},
	}
	fmt.Printf("%-24s", "branch edge")
	for _, e := range estimators {
		fmt.Printf("  %9s", e.Name())
	}
	fmt.Printf("  %9s\n", "oracle")

	results := make([]markov.EdgeProbs, len(estimators))
	for i, e := range estimators {
		probs, err := e.Estimate(model, samples)
		if err != nil {
			log.Fatalf("%s: %v", e.Name(), err)
		}
		results[i] = probs
	}
	for _, edge := range model.BranchEdgeList() {
		fmt.Printf("b%-3d -> b%-17d", edge[0], edge[1])
		for i := range estimators {
			fmt.Printf("  %9.3f", results[i][edge])
		}
		fmt.Printf("  %9.3f\n", truth[edge])
	}

	fmt.Println()
	for i, e := range estimators {
		mae, _ := stats.MAE(model.ProbVector(results[i]), model.ProbVector(truth))
		fmt.Printf("%-10s MAE vs oracle: %.4f\n", e.Name(), mae)
	}
	fmt.Printf("\nevents detected during the run: %v (debug output)\n", m.DebugOutput())
}
