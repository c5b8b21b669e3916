// Command motesim compiles and executes a MiniC program on the simulated
// M16 mote, printing architectural statistics, the debug-port output, and
// optionally the ground-truth branch profile.
//
// Usage:
//
//	motesim [-workload gaussian] [-seed 1] [-tick 8] [-predictor nt|btfn]
//	        [-max-cycles N] [-branches] file.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/trace"
)

func main() {
	regime := flag.String("workload", "gaussian", "input regime: gaussian, uniform, bursty, regime, diurnal")
	seed := flag.Int64("seed", 1, "workload random seed")
	tick := flag.Int("tick", 8, "timer prescaler in cycles")
	predictor := flag.String("predictor", "nt", "static branch predictor: nt (not-taken) or btfn")
	maxCycles := flag.Uint64("max-cycles", 2_000_000_000, "cycle budget")
	branches := flag.Bool("branches", false, "print per-branch taken/not-taken ground truth")
	fuse := flag.Bool("fuse", false, "enable compare-branch fusion")
	rotate := flag.Bool("rotate", false, "enable loop rotation")
	traceOut := flag.String("trace-out", "", "write the TRACE event log to this file (implies timestamp instrumentation)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: motesim [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mt := pipeline.Mote{TickDiv: *tick, MaxCycles: *maxCycles, FuseCompares: *fuse, RotateLoops: *rotate,
		Inputs: pipeline.Workload(*regime, *seed)}
	switch *predictor {
	case "nt":
		mt.Predictor = mote.StaticNotTaken{}
	case "btfn":
		mt.Predictor = mote.BTFN{}
	default:
		fatal(fmt.Errorf("unknown predictor %q", *predictor))
	}
	var opts compile.Options
	if *traceOut != "" {
		opts.Instrument = compile.ModeTimestamps
	}
	out, m, err := mt.Execute(string(src), opts)
	if err != nil {
		fatal(err)
	}

	s := m.Stats()
	fmt.Printf("cycles:        %d\n", s.Cycles)
	fmt.Printf("instructions:  %d\n", s.Instructions)
	fmt.Printf("cond branches: %d\n", s.CondBranches)
	fmt.Printf("taken:         %d\n", s.TakenBranches)
	fmt.Printf("mispredicts:   %d (%.2f%%)\n", s.Mispredicts, 100*float64(s.Mispredicts)/float64(max(s.CondBranches, 1)))
	fmt.Printf("radio packets: %d (%d words)\n", s.RadioPackets, s.RadioWords)
	fmt.Printf("sensor reads:  %d\n", s.SensorReads)
	fmt.Printf("energy:        %.1f uJ\n", mote.DefaultEnergyModel().Energy(s))
	if len(m.DebugOutput()) > 0 {
		fmt.Printf("debug output:  %v\n", m.DebugOutput())
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteEvents(f, m.Trace()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:         %d events -> %s\n", len(m.Trace()), *traceOut)
	}

	if *branches {
		fmt.Println("\nbranch ground truth (pc: taken/total):")
		bs := m.BranchStats()
		pcs := make([]int32, 0, len(bs))
		for pc := range bs {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			st := bs[pc]
			total := st.Taken + st.NotTaken
			fmt.Printf("  %5d: %8d/%-8d p=%.3f  %s\n", pc, st.Taken, total,
				float64(st.Taken)/float64(total), out.Code[pc])
		}
	}
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "motesim:", err)
	os.Exit(1)
}
