// Package cli is the one command-line surface the seven codetomo commands
// share: the exit-code contract, a flag set whose errors name the flag,
// range-checked and named-choice flag values, the single registration of
// every setting more than one command takes, the pprof dumps, and the
// estimate and placement report.
package cli

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	codetomo "codetomo"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
	"codetomo/internal/workload"
)

// The exit-code contract every command keeps. -h prints the usage and
// exits ExitOK. ctlint reads the codes as a linter does: ExitFailure means
// an error-severity diagnostic was found, and an unreadable source file
// is a usage error.
const (
	ExitOK      = 0 // run completed
	ExitFailure = 1 // runtime failure (I/O, pipeline, server)
	ExitUsage   = 2 // usage error; stderr names the flag
)

// Files, as Parse's want, accepts one or more positional arguments.
const Files = -1

// FlagSet is a command's flag set. Its usage line is "usage: <cmd>
// <argsHint>" followed by the flag defaults, and its errors go to the
// command's stderr prefixed with the command's name.
type FlagSet struct {
	*flag.FlagSet
	// resolve runs after a successful parse, for flags whose value depends
	// on another flag (an estimator tuned to the parsed -tick).
	resolve []func()
}

// NewFlagSet returns cmd's flag set, reporting to stderr.
func NewFlagSet(cmd, argsHint string, stderr io.Writer) *FlagSet {
	fs := &FlagSet{FlagSet: flag.NewFlagSet(cmd, flag.ContinueOnError)}
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s %s\n", cmd, argsHint)
		fs.PrintDefaults()
	}
	return fs
}

// Parse parses args and requires want positional arguments (0, 1, or
// Files). When the command must stop, it returns ok false and the exit
// code: ExitOK after -h, ExitUsage after a usage error it has reported.
func (fs *FlagSet) Parse(args []string, want int) (code int, ok bool) {
	if err := fs.FlagSet.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return ExitOK, false
		}
		return ExitUsage, false
	}
	switch n := fs.NArg(); {
	case want == Files && n == 0:
		return fs.Usagef("expected at least one source file"), false
	case want != Files && n != want:
		return fs.Usagef("expected %s, got %d args", [...]string{"no arguments", "exactly one source file"}[want], n), false
	}
	for _, f := range fs.resolve {
		f()
	}
	return ExitOK, true
}

// Usagef reports a usage error that no single flag's parse catches, then
// the usage, and returns ExitUsage. The message must name the offending
// flag (e.g. "invalid -pushtimeout: ..."), so a misconfigured run fails
// loudly instead of running with silently-clamped parameters.
func (fs *FlagSet) Usagef(format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return ExitUsage
}

// Fail reports a runtime failure and returns ExitFailure.
func (fs *FlagSet) Fail(err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return ExitFailure
}

// ranged is a numeric flag value that rejects anything outside [lo, hi]
// as it is parsed, so fs.Parse fails naming the flag.
type ranged[T int | float64] struct {
	p      *T
	lo, hi T
}

func (r ranged[T]) String() string {
	if r.p == nil {
		return "0"
	}
	return fmt.Sprint(*r.p)
}

func (r ranged[T]) Set(s string) error {
	var v T
	switch p := any(&v).(type) {
	case *int:
		n, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("not an integer")
		}
		*p = int(n)
	case *float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("not a number")
		}
		*p = x
	}
	// Written to reject NaN too.
	if !(v >= r.lo && v <= r.hi) {
		if float64(r.hi) >= math.MaxInt {
			return fmt.Errorf("must be >= %v", r.lo)
		}
		return fmt.Errorf("must be in [%v, %v]", r.lo, r.hi)
	}
	*r.p = v
	return nil
}

// Int defines an int flag stored in *p, default value, whose value must
// lie in [lo, hi]; math.MaxInt for hi means no upper bound.
func Int(fs *FlagSet, p *int, name string, value, lo, hi int, usage string) {
	*p = value
	fs.Var(ranged[int]{p: p, lo: lo, hi: hi}, name, usage)
}

// Float defines a float64 flag stored in *p, default value, whose value
// must lie in [lo, hi]; math.Inf(1) for hi means no upper bound.
func Float(fs *FlagSet, p *float64, name string, value, lo, hi float64, usage string) {
	*p = value
	fs.Var(ranged[float64]{p: p, lo: lo, hi: hi}, name, usage)
}

// Prob defines a probability flag stored in *p: a float64 in [0, 1],
// default 0.
func Prob(fs *FlagSet, p *float64, name, usage string) {
	Float(fs, p, name, 0, 0, 1, usage)
}

// choice is a flag value that must be one of names; it stores the
// matching entry of vals.
type choice[T any] struct {
	p     *T
	cur   string
	names []string
	vals  []T
}

func (c *choice[T]) String() string { return c.cur }

func (c *choice[T]) Set(s string) error {
	i := slices.Index(c.names, s)
	if i < 0 {
		return fmt.Errorf("want %s", strings.Join(c.names, ", "))
	}
	c.cur, *c.p = s, c.vals[i]
	return nil
}

// Choice defines a flag naming one of names, default names[0], that
// stores the matching entry of vals in *p. The usage lists the names.
func Choice[T any](fs *FlagSet, p *T, name string, names []string, vals []T, usage string) {
	*p = vals[0]
	fs.Var(&choice[T]{p: p, cur: names[0], names: names, vals: vals}, name, usage+": "+strings.Join(names, ", "))
}

// The settings more than one command takes are registered below, each
// by one function, so a flag has one name, default, range, help text and
// parse everywhere. A numeric flag's default is the value its
// destination already holds (ctbench's seed is bench.DefaultConfig's) or,
// when that is zero, the default the library gives a zero field; a named
// choice defaults to its first name.

// Workload defines -workload, the input regime, stored in *p.
func Workload(fs *FlagSet, p *string) {
	names := workload.RegimeNames()
	Choice(fs, p, "workload", names, names, "input regime")
}

// Workloads defines ctfleet's -workloads, a comma-separated list of input
// regimes stored in *p.
func Workloads(fs *FlagSet, p *[]string) {
	fs.Func("workloads", "comma-separated input regimes assigned to motes round-robin (default: -workload for every mote)", func(s string) error {
		*p = strings.Split(s, ",")
		for _, n := range *p {
			if !slices.Contains(workload.RegimeNames(), n) {
				return fmt.Errorf("unknown regime %q (want %s)", n, strings.Join(workload.RegimeNames(), ", "))
			}
		}
		return nil
	})
}

// Seed defines -seed, the master random seed, stored in *p.
func Seed(fs *FlagSet, p *int64) {
	fs.Int64Var(p, "seed", cmp.Or(*p, 1), "master random seed (workloads, and in ctfleet clocks, channel and faults, derive from it)")
}

// Tick defines -tick, the timer prescaler, stored in *p.
func Tick(fs *FlagSet, p *int) {
	Int(fs, p, "tick", cmp.Or(*p, pipeline.DefaultTickDiv), 1, math.MaxInt, "timer prescaler in cycles")
}

// MaxCycles defines -max-cycles, the cycle budget, stored in *p.
func MaxCycles(fs *FlagSet, p *uint64) {
	fs.Uint64Var(p, "max-cycles", cmp.Or(*p, pipeline.DefaultMaxCycles),
		"cycle budget: a simulated run stops past it, and ctlint warns on a procedure that provably exceeds it")
}

// Estimator defines -estimator. Once the flags are parsed it stores in
// *p the named estimator with its kernel at *tick, or nil for em, since
// the pipeline tunes its default EM to the tick itself. "robust" is EM
// inside the outlier-trimming, confidence-gating robust estimator, every
// other knob at its default.
func Estimator(fs *FlagSet, p *tomography.Estimator, tick *int) {
	var build func(tick float64) tomography.Estimator
	Choice(fs, &build, "estimator", []string{"em", "robust", "moments", "histogram"}, []func(float64) tomography.Estimator{
		func(float64) tomography.Estimator { return nil },
		func(t float64) tomography.Estimator {
			return tomography.Robust{Config: tomography.RobustConfig{EM: tomography.EMConfig{KernelHalfWidth: t}}}
		},
		func(float64) tomography.Estimator { return tomography.Moments{} },
		func(t float64) tomography.Estimator {
			return tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: t}}
		},
	}, "estimation strategy")
	fs.resolve = append(fs.resolve, func() { *p = build(float64(*tick)) })
}

// Static defines -static, stored in *p.
func Static(fs *FlagSet, p *bool) {
	fs.BoolVar(p, "static", false, "pin statically resolved branches and check fits against the static envelope")
}

// Passes defines -fuse and -rotate, the backend's optional passes,
// stored in *fuse and *rotate.
func Passes(fs *FlagSet, fuse, rotate *bool) {
	fs.BoolVar(fuse, "fuse", false, "enable compare-branch fusion in every build")
	fs.BoolVar(rotate, "rotate", false, "enable loop rotation in every build")
}

// PageCost defines -pagecost, stored in *p.
func PageCost(fs *FlagSet, p *int) {
	Int(fs, p, "pagecost", 0, 0, math.MaxInt, "flash page-crossing penalty in cycles charged by the mote (0 = uniform flash)")
}

// Predictor defines -predictor, the motes' static branch predictor,
// stored in *p.
func Predictor(fs *FlagSet, p *mote.Predictor) {
	Choice(fs, p, "predictor", []string{"nt", "btfn"}, []mote.Predictor{mote.StaticNotTaken{}, mote.BTFN{}},
		"static branch predictor, not-taken or backward-taken/forward-not-taken")
}

// PGO defines -pgo: a comma-separated subset of the passes, "all", or
// "" / "none" for placement only. It sets cfg's four PGO fields.
func PGO(fs *FlagSet, cfg *codetomo.Config) {
	passes := []string{"inline", "superblock", "hotcold", "pagepack"}
	fields := []*bool{&cfg.PGOInline, &cfg.PGOSuperblock, &cfg.PGOHotCold, &cfg.PGOPagePack}
	fs.Func("pgo", "profile-guided passes beyond placement: comma-separated subset of "+strings.Join(passes, ",")+", or all/none", func(spec string) error {
		for _, f := range fields {
			*f = false
		}
		if spec == "" || spec == "none" {
			return nil
		}
		for _, tok := range strings.Split(spec, ",") {
			tok = strings.TrimSpace(tok)
			switch i := slices.Index(passes, tok); {
			case tok == "all":
				for _, f := range fields {
					*f = true
				}
			case i >= 0:
				*fields[i] = true
			default:
				return fmt.Errorf("%q (want a comma-separated subset of %s, or all/none)", tok, strings.Join(passes, ","))
			}
		}
		return nil
	})
}

// Config defines the settings of a pipeline run that ctomo and ctfleet
// both take: -workload, -seed, -tick, -estimator, -static, -pgo and
// -pagecost, stored in cfg.
func Config(fs *FlagSet, cfg *codetomo.Config) {
	Workload(fs, &cfg.Workload)
	Seed(fs, &cfg.Seed)
	Tick(fs, &cfg.TickDiv)
	Estimator(fs, &cfg.Estimator, &cfg.TickDiv)
	Static(fs, &cfg.StaticResolve)
	PGO(fs, cfg)
	PageCost(fs, &cfg.PageCrossPenalty)
}

// Profiles holds the paths of the -cpuprofile and -memprofile flags.
type Profiles struct{ cpu, mem string }

// Profile defines -cpuprofile and -memprofile.
func Profile(fs *FlagSet) *Profiles {
	p := new(Profiles)
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	return p
}

// Run runs body under a pprof CPU profile when -cpuprofile is set and
// writes a heap profile of the live heap afterwards when -memprofile is
// set. It returns body's exit code, or ExitFailure when a profile cannot
// be written.
func (p *Profiles) Run(fs *FlagSet, body func() int) int {
	var cpu *os.File
	if p.cpu != "" {
		var err error
		if cpu, err = os.Create(p.cpu); err != nil {
			return fs.Fail(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return fs.Fail(err)
		}
	}
	code := body()
	fail := func(err error) {
		if err != nil {
			code = max(code, fs.Fail(err))
		}
	}
	if p.mem != "" {
		fail(writeHeapProfile(p.mem))
	}
	if cpu != nil {
		pprof.StopCPUProfile()
		fail(cpu.Close())
	}
	return code
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // report live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Report prints a pipeline result: each procedure's estimates against the
// oracle, under the heading "estimates (<estimates>):", then the original
// and optimized runs under "placement result (<placement>):".
func Report(w io.Writer, res *codetomo.Result, estimates, placement string) {
	fmt.Fprintf(w, "estimates (%s):\n", estimates)
	for _, pe := range res.Estimates {
		if pe.Fallback {
			fmt.Fprintf(w, "  %-14s %6d samples  (untrusted model; layout left unchanged)\n", pe.Proc, pe.SampleCount)
			continue
		}
		note := ""
		if pe.TrimmedSamples > 0 {
			note = fmt.Sprintf("  [%d outliers trimmed]", pe.TrimmedSamples)
		}
		if pe.LowConfidence {
			note += "  [low confidence; layout left unchanged]"
		}
		fmt.Fprintf(w, "  %-14s %6d samples  MAE vs oracle %.4f%s\n", pe.Proc, pe.SampleCount, pe.MAE, note)
		for _, b := range pe.Branches {
			warn := ""
			if b.Ambiguity > 0.9 {
				warn = "  [structurally ambiguous at this timer resolution]"
			}
			fmt.Fprintf(w, "      b%-3d -> b%-3d  est %.3f  oracle %.3f%s\n", b.FromBlock, b.ToBlock, b.Prob, b.Oracle, warn)
		}
	}

	fmt.Fprintf(w, "\nplacement result (%s):\n", placement)
	fmt.Fprintf(w, "  %-22s %14s %14s\n", "", "original", "optimized")
	fmt.Fprintf(w, "  %-22s %14d %14d\n", "cycles", res.Before.Cycles, res.After.Cycles)
	fmt.Fprintf(w, "  %-22s %14d %14d\n", "cond branches", res.Before.CondBranches, res.After.CondBranches)
	fmt.Fprintf(w, "  %-22s %14d %14d\n", "mispredicts", res.Before.Mispredicts, res.After.Mispredicts)
	fmt.Fprintf(w, "  %-22s %13.2f%% %13.2f%%\n", "mispredict rate",
		100*res.Before.MispredictRate(), 100*res.After.MispredictRate())
	fmt.Fprintf(w, "  %-22s %14.1f %14.1f\n", "energy (uJ)", res.Before.EnergyUJ, res.After.EnergyUJ)
	fmt.Fprintf(w, "\n  misprediction reduction: %.1f%%   speedup: %.3fx\n",
		100*res.MispredictReduction(), res.Speedup())
}
