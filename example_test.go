package codetomo_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// A classic sensor-network kernel: sample, threshold, report. The branch
// probabilities depend on the input distribution and are unknown at
// compile time, which is what Code Tomography estimates from timing alone.
const senseAndReport = `
var threshold int = 520;

func sample() int {
	var v int;
	v = sense();
	if (v > threshold) {
		send(v);
		return 1;
	}
	return 0;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 2000; i = i + 1) {
		acc = acc + sample();
	}
	debug(acc);
}
`

// ExampleRun runs the whole pipeline on a sense-and-report program and
// prints what it estimated and what placement bought.
func ExampleRun() {
	res, err := codetomo.Run(senseAndReport, codetomo.Config{
		Workload: "gaussian", // N(300, 120²) sensor readings
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("What the estimator recovered from timestamps alone:")
	for _, pe := range res.Estimates {
		if pe.Fallback {
			fmt.Printf("  %s: left alone (%d samples)\n", pe.Proc, pe.SampleCount)
			continue
		}
		fmt.Printf("  %s (%d samples, MAE %.4f):\n", pe.Proc, pe.SampleCount, pe.MAE)
		for _, b := range pe.Branches {
			fmt.Printf("    edge b%d->b%d: estimated %.3f, true %.3f\n",
				b.FromBlock, b.ToBlock, b.Prob, b.Oracle)
		}
	}

	fmt.Println("\nWhat feeding it back to the compiler bought:")
	fmt.Printf("  misprediction rate: %.2f%% -> %.2f%%  (%.1f%% reduction)\n",
		100*res.Before.MispredictRate(), 100*res.After.MispredictRate(),
		100*res.MispredictReduction())
	fmt.Printf("  cycles:             %d -> %d  (%.3fx speedup)\n",
		res.Before.Cycles, res.After.Cycles, res.Speedup())
	fmt.Printf("  program output unchanged: %v\n", res.Output)
	// Output:
	// What the estimator recovered from timestamps alone:
	//   sample (2000 samples, MAE 0.0330):
	//     edge b0->b1: estimated 0.004, true 0.037
	//     edge b0->b2: estimated 0.996, true 0.963
	//   main: left alone (1 samples)
	//
	// What feeding it back to the compiler bought:
	//   misprediction rate: 48.14% -> 1.90%  (96.1% reduction)
	//   cycles:             208585 -> 204885  (1.018x speedup)
	//   program output unchanged: [75]
}

// Example_offline splits the deployment workflow in two. A mote runs the
// instrumented binary in the field and uploads its trace log as a CTT1
// trace file; later the host decodes the file and estimates branch
// probabilities without re-running the program.
func Example_offline() {
	app, _ := apps.ByName("fir")
	src, err := app.Source(3000)
	if err != nil {
		log.Fatal(err)
	}

	// In the field: run and upload the trace log.
	field := pipeline.Mote{TickDiv: pipeline.DefaultTickDiv, Predictor: mote.StaticNotTaken{}, MaxCycles: pipeline.DefaultMaxCycles,
		Inputs: func() (mote.SampleSource, mote.SampleSource, error) {
			sensor, _ := workload.Named(app.Workload, stats.NewRNG(2024))
			return sensor, nil, nil
		}}
	out, m, err := field.Execute(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "codetomo-offline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "upload.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteEvents(f, m.Trace()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("field: uploaded %d trace events\n", len(m.Trace()))

	// On the host: decode and estimate, no re-execution.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	events, err := trace.ReadEvents(rf)
	if err != nil {
		log.Fatal(err)
	}
	ivs, err := trace.Extract(events)
	if err != nil {
		log.Fatal(err)
	}
	pm := out.Meta.ProcByName[app.Handler]
	samples := trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], field.TickDiv)
	fmt.Printf("host:  decoded %d invocations of %s\n", len(samples), app.Handler)

	model, err := pipeline.Settings{TickDiv: field.TickDiv, Predictor: field.Predictor}.WithDefaults().Model(out, app.Handler)
	if err != nil {
		log.Fatal(err)
	}
	probs, st, err := tomography.EstimateEM(model, samples, tomography.EMConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host:  EM converged in %d iterations (log-likelihood %.1f)\n",
		st.Iterations, st.LogLikelihood)
	for _, e := range model.BranchEdgeList() {
		fmt.Printf("       edge b%d->b%d: %.3f\n", e[0], e[1], probs[e])
	}
	// Output:
	// field: uploaded 6002 trace events
	// host:  decoded 3000 invocations of filterstep
	// host:  EM converged in 13 iterations (log-likelihood -1907.0)
	//        edge b0->b1: 0.157
	//        edge b0->b2: 0.843
	//        edge b1->b3: 0.184
	//        edge b1->b4: 0.816
	//        edge b2->b5: 0.061
	//        edge b2->b6: 0.939
}
