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
	"fmt"
	"io"
	"math"
	"os"

	codetomo "codetomo"
	"codetomo/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse, validate, execute, report. Exit
// codes: 0 success, 1 pipeline failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.FlagSet("ctomo", "[flags] file.mc", stderr)
	regime := fs.String("workload", "gaussian", "input regime: gaussian, uniform, bursty, regime, diurnal")
	seed := fs.Int64("seed", 1, "workload random seed")
	tick := cli.Int(fs, "tick", 8, 1, math.MaxInt, "timer prescaler in cycles")
	estName := fs.String("estimator", "em", "estimator: em, robust, moments, or histogram")
	fuse := fs.Bool("fuse", false, "enable compare-branch fusion in all builds")
	rotate := fs.Bool("rotate", false, "enable loop rotation in all builds")
	static := fs.Bool("static", false, "pin statically resolved branches and check fits against the static envelope")
	pgo := fs.String("pgo", "", "profile-guided passes beyond placement: comma-separated subset of inline,superblock,hotcold,pagepack, or all/none")
	pageCost := cli.Int(fs, "pagecost", 0, 0, math.MaxInt, "flash page-crossing penalty in cycles charged by the mote (0 = uniform flash)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 1 {
		return cli.Usage(fs, "expected exactly one source file, got %d args", fs.NArg())
	}
	passes, err := cli.ParsePGOPasses(*pgo)
	if err != nil {
		return cli.Usage(fs, "invalid -pgo: %v", err)
	}
	est, err := cli.Estimator(*estName, *tick)
	if err != nil {
		return cli.Usage(fs, "invalid -estimator: %v", err)
	}
	cfg := codetomo.Config{Workload: *regime, Seed: *seed, TickDiv: *tick, Estimator: est,
		FuseCompares: *fuse, RotateLoops: *rotate, StaticResolve: *static,
		PGOInline: passes.Inline, PGOSuperblock: passes.Superblock,
		PGOHotCold: passes.HotCold, PGOPagePack: passes.PagePack,
		PageCrossPenalty: *pageCost}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ctomo:", err)
		return cli.ExitFailure
	}
	res, err := codetomo.Run(string(src), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ctomo:", err)
		return cli.ExitFailure
	}
	cli.Report(stdout, res, "per procedure", "uninstrumented, identical workload")
	return cli.ExitOK
}
