// Command perfbench is the repository's end-to-end benchmark. It drives the
// Code Tomography system through its public entry points on one of three
// workloads and prints the metrics as one JSON object on the last line of
// standard output:
//
//	sh perfbench/run.sh --workload pipeline_apps --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it instead runs the same work with spans recorded around every
// call into a layer and prints the per-layer metrics, plus the tracing
// overhead. README.md in this directory lists every metric, its unit and
// which end-to-end metric each per-layer one should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout whose source lines are counted.
	root string
	// scratch holds station data directories and span dumps.
	scratch string
}

// workloads maps each workload name to its runner. Every runner returns a
// finished report; an error means the harness itself could not run (bad
// inputs, a broken replica), not that an operation failed.
var workloads = map[string]func(options) (*report, error){
	"pipeline_apps": func(o options) (*report, error) { return runPipeline(o, defaultPipelineParams()) },
	"fleet_10k":     func(o options) (*report, error) { return runFleet(o, defaultFleetParams()) },
	"station_push":  func(o options) (*report, error) { return runStation(o, defaultStationParams()) },
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: pipeline_apps, fleet_10k or station_push")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fs.String("root", ".", "repository checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {pipeline_apps,fleet_10k,station_push}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		root:     *root,
		scratch:  filepath.Join(*root, ".bench_build", "perfbench"),
	}
	if err := checkRoot(opts.root); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		opts.workload, opts.seed, opts.seconds.Seconds(), *traceFlag,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", f)
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// checkRoot refuses to run outside a codetomo checkout: without the
// sources there is nothing to measure and no line counts to take.
func checkRoot(root string) error {
	for _, f := range []string{"go.mod", "codetomo.go", "internal/station/station.go"} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			return fmt.Errorf("%s is not a codetomo checkout: %w", root, err)
		}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operation counts, metrics and a
// human-readable summary printed above the JSON line.
type report struct {
	attempted, failed int
	failures          []string // the first few failure messages
	metrics           map[string]metric
	defs              []metricDef // the metric set this run must print
	lines             []string
	// digest fingerprints the generated inputs, so a test can check that
	// the seed reaches them.
	digest uint64
}

func newReport(o options) *report {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	return &report{metrics: make(map[string]metric), defs: defs}
}

// set records a metric; the name must be one of the run's metric set.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: metric not in this run's set: " + name)
}

// fail counts n failed operations with a reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the human-readable summary.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the summary and the JSON result line. Every metric of the
// run's set must have been recorded.
func (r *report) write(w io.Writer) error {
	var missing []string
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not recorded: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.metrics[d.name].Value, d.unit)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
