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
	"fmt"
	"io"
	"os"
	"sort"

	"codetomo/internal/cli"
	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the cli exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("motesim", "[flags] file.mc", stderr)
	var mt pipeline.Mote
	var regime string
	var seed int64
	cli.Workload(fs, &regime)
	cli.Seed(fs, &seed)
	cli.Tick(fs, &mt.TickDiv)
	cli.Predictor(fs, &mt.Predictor)
	cli.MaxCycles(fs, &mt.MaxCycles)
	cli.Passes(fs, &mt.FuseCompares, &mt.RotateLoops)
	branches := fs.Bool("branches", false, "print per-branch taken/not-taken ground truth")
	traceOut := fs.String("trace-out", "", "write the TRACE event log to this file (implies timestamp instrumentation)")
	if code, ok := fs.Parse(args, 1); !ok {
		return code
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Fail(err)
	}
	mt.Inputs = pipeline.Workload(regime, seed)
	var opts compile.Options
	if *traceOut != "" {
		opts.Instrument = compile.ModeTimestamps
	}
	out, m, err := mt.Execute(string(src), opts)
	if err != nil {
		return fs.Fail(err)
	}

	s := m.Stats()
	fmt.Fprintf(stdout, "cycles:        %d\n", s.Cycles)
	fmt.Fprintf(stdout, "instructions:  %d\n", s.Instructions)
	fmt.Fprintf(stdout, "cond branches: %d\n", s.CondBranches)
	fmt.Fprintf(stdout, "taken:         %d\n", s.TakenBranches)
	fmt.Fprintf(stdout, "mispredicts:   %d (%.2f%%)\n", s.Mispredicts, 100*s.MispredictRate())
	fmt.Fprintf(stdout, "radio packets: %d (%d words)\n", s.RadioPackets, s.RadioWords)
	fmt.Fprintf(stdout, "sensor reads:  %d\n", s.SensorReads)
	fmt.Fprintf(stdout, "energy:        %.1f uJ\n", mote.DefaultEnergyModel().Energy(s))
	if len(m.DebugOutput()) > 0 {
		fmt.Fprintf(stdout, "debug output:  %v\n", m.DebugOutput())
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteEvents(f, m.Trace())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fs.Fail(err)
		}
		fmt.Fprintf(stdout, "trace:         %d events -> %s\n", len(m.Trace()), *traceOut)
	}

	if *branches {
		fmt.Fprintln(stdout, "\nbranch ground truth (pc: taken/total):")
		bs := m.BranchStats()
		pcs := make([]int32, 0, len(bs))
		for pc := range bs {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			st := bs[pc]
			total := st.Taken + st.NotTaken
			fmt.Fprintf(stdout, "  %5d: %8d/%-8d p=%.3f  %s\n", pc, st.Taken, total,
				float64(st.Taken)/float64(total), out.Code[pc])
		}
	}
	return cli.ExitOK
}
