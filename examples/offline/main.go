// Offline analysis: the deployment workflow split in two. A mote runs the
// instrumented binary in the field and uploads its trace log; later, the
// host decodes the log and estimates branch probabilities without ever
// re-running the program. This example performs both halves, passing the
// trace through the on-disk format in between.
//
//	go run ./examples/offline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

func main() {
	app, _ := apps.ByName("fir")
	src, err := app.Source(3000)
	if err != nil {
		log.Fatal(err)
	}

	// --- In the field: run and upload the trace log. ---
	field := pipeline.Mote{TickDiv: pipeline.DefaultTickDiv, Predictor: mote.StaticNotTaken{}, MaxCycles: pipeline.DefaultMaxCycles,
		Inputs: func() (mote.SampleSource, mote.SampleSource, error) {
			sensor, _ := workload.Named(app.Workload, stats.NewRNG(2024))
			return sensor, nil, nil
		}}
	out, m, err := field.Execute(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		log.Fatal(err)
	}

	path := filepath.Join(os.TempDir(), "codetomo-offline.trace")
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
	fmt.Printf("field: uploaded %d trace events (%s)\n", len(m.Trace()), path)

	// --- On the host: decode and estimate, no re-execution. ---
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	events, err := trace.ReadEvents(rf)
	if err != nil {
		log.Fatal(err)
	}
	rf.Close()
	os.Remove(path)

	ivs, err := trace.Extract(events)
	if err != nil {
		log.Fatal(err)
	}
	pm := out.Meta.ProcByName[app.Handler]
	ticks := trace.ExclusiveByProc(ivs)[pm.Index]
	samples := trace.DurationsCycles(ticks, field.TickDiv)
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
	fmt.Println("\n(feed these into layout.PlanAll + compile.Options to rebuild optimized firmware)")
}
