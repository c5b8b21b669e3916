// Command ctomo runs the full Code Tomography pipeline on a MiniC program:
// profile with procedure-boundary timestamps, estimate branch probabilities
// from the timing samples alone, optimize the code placement, and report
// the misprediction and cycle improvements.
//
// Usage:
//
//	ctomo [-workload gaussian] [-seed 1] [-tick 8] [-estimator em|robust|moments|histogram] [-static] [-pgo all] [-pagecost 5] file.mc
package main

import (
	"io"
	"os"

	codetomo "codetomo"
	"codetomo/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the cli exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("ctomo", "[flags] file.mc", stderr)
	var cfg codetomo.Config
	cli.Config(fs, &cfg)
	cli.Passes(fs, &cfg.FuseCompares, &cfg.RotateLoops)
	if code, ok := fs.Parse(args, 1); !ok {
		return code
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Fail(err)
	}
	res, err := codetomo.Run(string(src), cfg)
	if err != nil {
		return fs.Fail(err)
	}
	cli.Report(stdout, res, "per procedure", "uninstrumented, identical workload")
	return cli.ExitOK
}
