// Overhead study: what does profiling cost on the mote? Compares Code
// Tomography's two-timestamps-per-invocation against classical per-arc
// counters for every benchmark — flash bytes, RAM bytes, runtime cycles,
// and energy. This is the paper's core deployment argument: motes can
// afford boundary timestamps where they cannot afford counters everywhere.
//
//	go run ./examples/overhead
package main

import (
	"fmt"
	"log"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
)

func main() {
	energy := mote.DefaultEnergyModel()
	fmt.Printf("%-12s %-14s %8s %8s %10s %10s\n",
		"app", "strategy", "code +B", "RAM B", "cycles +%", "energy +uJ")

	for _, a := range apps.All() {
		src, err := a.Source(2000)
		if err != nil {
			log.Fatal(err)
		}
		field := pipeline.Mote{TickDiv: 8, Predictor: mote.StaticNotTaken{}, MaxCycles: 2_000_000_000,
			Inputs: pipeline.Workload(a.Workload, 7)}
		run := func(mode compile.Mode) (*compile.Output, mote.Stats) {
			out, m, err := field.Execute(src, compile.Options{Instrument: mode})
			if err != nil {
				log.Fatal(err)
			}
			return out, m.Stats()
		}

		baseOut, baseStats := run(compile.ModeNone)
		for _, mode := range []compile.Mode{compile.ModeTimestamps, compile.ModeEdgeCounters} {
			instOut, instStats := run(mode)
			o := profile.MeasureOverhead(mode.String(), baseOut.Meta, instOut.Meta, baseStats, instStats, energy)
			fmt.Printf("%-12s %-14s %8d %8d %9.2f%% %10.1f\n",
				a.Name, o.Strategy, o.CodeBytes, o.RAMBytes, o.ExtraCyclesPct, o.ExtraEnergyUJ)
		}
	}
	fmt.Println("\ntimestamps = Code Tomography's instrumentation; edge-counters = full profiling baseline")
}
