// Command minicc compiles a MiniC source file to M16 machine code and
// prints an annotated assembly listing, optionally with profiling
// instrumentation and per-procedure CFG dumps.
//
// Usage:
//
//	minicc [-instrument none|timestamps|counters] [-dot proc] file.mc
package main

import (
	"fmt"
	"io"
	"os"

	"codetomo/internal/cli"
	"codetomo/internal/compile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the cli exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("minicc", "[flags] file.mc", stderr)
	var opts compile.Options
	cli.Choice(fs, &opts.Instrument, "instrument", []string{"none", "timestamps", "counters"},
		[]compile.Mode{compile.ModeNone, compile.ModeTimestamps, compile.ModeEdgeCounters}, "instrumentation")
	cli.Passes(fs, &opts.FuseCompares, &opts.RotateLoops)
	dot := fs.String("dot", "", "print the named procedure's CFG in Graphviz DOT and exit")
	stats := fs.Bool("stats", false, "print code size and global usage summary")
	if code, ok := fs.Parse(args, 1); !ok {
		return code
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Fail(err)
	}
	out, err := compile.Build(string(src), opts)
	if err != nil {
		return fs.Fail(err)
	}

	switch {
	case *dot != "":
		p := out.CFG.Proc(*dot)
		if p == nil {
			return fs.Fail(fmt.Errorf("no procedure %q", *dot))
		}
		fmt.Fprint(stdout, p.DOT(nil))
	case *stats:
		fmt.Fprintf(stdout, "procedures: %d\n", len(out.CFG.Procs))
		fmt.Fprintf(stdout, "instructions: %d\n", len(out.Code))
		fmt.Fprintf(stdout, "code bytes: %d\n", out.Meta.CodeBytes)
		fmt.Fprintf(stdout, "global words: %d\n", out.Meta.GlobalWords)
		fmt.Fprintf(stdout, "arc counters: %d\n", out.Meta.NumArcCounters)
	default:
		fmt.Fprint(stdout, out.Listing())
	}
	return cli.ExitOK
}
