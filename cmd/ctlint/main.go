// Command ctlint runs the MiniC static analyzer over source files and
// prints positioned diagnostics: unused variables and parameters,
// unreachable statements, constant branch conditions, dead stores,
// maybe-uninitialized reads, value-range findings (dead-branch,
// unreachable-block, loop-unbounded), and static cost bounds (provable
// WCET cycles, stack depth, recursion, flash size) against the M16 part
// limits. With -pages it adds a flash-page report: pages each procedure
// occupies, avoidable page straddles, and cold-split candidates under
// static branch priors.
//
// Usage:
//
//	ctlint [-json] [-costs] [-pages] [-max-cycles n] file.mc...
//
// Exit status is 0 when no error-severity diagnostics were found, 1 when
// at least one file has errors, and 2 on usage mistakes and unreadable
// files.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"codetomo/internal/cli"
	"codetomo/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the linter's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("ctlint", "[flags] file.mc...", stderr)
	var opts lint.Options
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	fs.BoolVar(&opts.CostReport, "costs", false, "include an informational cost summary per procedure")
	fs.BoolVar(&opts.PageReport, "pages", false, "include a flash-page occupancy report and cold-split candidates per procedure")
	cli.MaxCycles(fs, &opts.MaxCycles)
	if code, ok := fs.Parse(args, cli.Files); !ok {
		return code
	}
	var all []lint.Diag
	for _, name := range fs.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fs.Fail(err)
			return cli.ExitUsage
		}
		all = append(all, lint.Run(name, string(src), opts)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []lint.Diag{} // a run with no findings is [], not null
		}
		if err := enc.Encode(all); err != nil {
			fs.Fail(err)
			return cli.ExitUsage
		}
	} else {
		for _, d := range all {
			fmt.Fprintln(stdout, d)
		}
	}

	for _, d := range all {
		if d.Severity == lint.SevError {
			return cli.ExitFailure
		}
	}
	return cli.ExitOK
}
