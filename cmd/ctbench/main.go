// Command ctbench regenerates the evaluation: every table and figure of
// the reconstructed ISPASS'15 experiments (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for the committed results).
//
// Usage:
//
//	ctbench               # run everything
//	ctbench -exp f4       # one experiment
//	ctbench -csv          # emit CSV instead of aligned tables
//	ctbench -json         # emit a JSON array of result tables
//	ctbench -samples 3000 -seed 1234 -tick 8
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"codetomo/internal/bench"
	"codetomo/internal/cli"
	"codetomo/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the cli exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("ctbench", "[flags]", stderr)
	cfg := bench.DefaultConfig()
	ids, sets := []string{"all"}, [][]bench.Experiment{bench.Experiments()}
	for _, e := range bench.Experiments() {
		ids, sets = append(ids, e.ID), append(sets, []bench.Experiment{e})
	}
	var exps []bench.Experiment
	cli.Choice(fs, &exps, "exp", ids, sets, "experiment")
	cli.Int(fs, &cfg.Samples, "samples", cfg.Samples, 1, math.MaxInt, "handler invocations per profiling run")
	cli.Seed(fs, &cfg.Seed)
	cli.Tick(fs, &cfg.TickDiv)
	cli.Predictor(fs, &cfg.Predictor)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit a JSON array of result tables (machine-readable)")
	prof := cli.Profile(fs)
	if code, ok := fs.Parse(args, 0); !ok {
		return code
	}

	type jsonTable struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		*report.Table
	}
	return prof.Run(fs, func() int {
		var collected []jsonTable
		for _, e := range exps {
			start := time.Now()
			table, err := e.Run(cfg)
			if err != nil {
				return fs.Fail(fmt.Errorf("%s: %w", e.ID, err))
			}
			switch {
			case *jsonOut:
				collected = append(collected, jsonTable{ID: e.ID, Title: e.Title, Table: table})
			case *csv:
				fmt.Fprintf(stdout, "# %s: %s\n", e.ID, e.Title)
				fmt.Fprint(stdout, table.CSV())
			default:
				fmt.Fprint(stdout, table.Render())
				fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(collected); err != nil {
				return fs.Fail(err)
			}
		}
		return cli.ExitOK
	})
}
