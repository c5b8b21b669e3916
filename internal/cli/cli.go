// Package cli is the one command-line surface the codetomo commands
// share: the exit-code convention (0 success, 1 runtime failure, 2 usage
// error), flag sets whose usage line and range-checked numeric flags name
// the offending flag, the -pgo, -estimator and -predictor resolvers, the
// pprof file dumps, and the estimate and placement report.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	codetomo "codetomo"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
)

// The exit-code contract shared by ctomo, ctfleet, and ctstationd.
const (
	ExitOK      = 0 // run completed
	ExitFailure = 1 // runtime failure (I/O, pipeline, server)
	ExitUsage   = 2 // flag-validation failure; stderr names the flag
)

// FlagSet returns a flag set for cmd that reports to stderr and whose
// Usage prints "usage: <cmd> <argsHint>" and the flag defaults. Parse
// returns its errors rather than exiting.
func FlagSet(cmd, argsHint string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s %s\n", cmd, argsHint)
		fs.PrintDefaults()
	}
	return fs
}

// Usage reports one validation failure that no single flag's range
// catches, then the flag set's usage, and returns ExitUsage for main to
// hand to os.Exit. The message must name the offending flag (e.g.
// "invalid -pgo: ..."), so a misconfigured run fails loudly and
// actionably instead of running with silently-clamped parameters.
func Usage(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return ExitUsage
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

// Int defines an int flag whose value must lie in [lo, hi]; math.MaxInt
// for hi means no upper bound.
func Int(fs *flag.FlagSet, name string, value, lo, hi int, usage string) *int {
	fs.Var(ranged[int]{p: &value, lo: lo, hi: hi}, name, usage)
	return &value
}

// Float defines a float64 flag whose value must lie in [lo, hi];
// math.Inf(1) for hi means no upper bound.
func Float(fs *flag.FlagSet, name string, value, lo, hi float64, usage string) *float64 {
	fs.Var(ranged[float64]{p: &value, lo: lo, hi: hi}, name, usage)
	return &value
}

// Prob defines a probability flag: a float64 in [0, 1], default 0.
func Prob(fs *flag.FlagSet, name, usage string) *float64 {
	return Float(fs, name, 0, 0, 1, usage)
}

// PGOPasses holds the selection parsed from a -pgo flag.
type PGOPasses struct {
	Inline     bool
	Superblock bool
	HotCold    bool
	PagePack   bool
}

// ParsePGOPasses resolves the -pgo flag the pipeline CLIs share: a
// comma-separated subset of {inline, superblock, hotcold, pagepack}, the
// shorthand "all", or "" / "none" for placement-only.
func ParsePGOPasses(spec string) (PGOPasses, error) {
	var p PGOPasses
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "inline":
			p.Inline = true
		case "superblock":
			p.Superblock = true
		case "hotcold":
			p.HotCold = true
		case "pagepack":
			p.PagePack = true
		case "all":
			p = PGOPasses{Inline: true, Superblock: true, HotCold: true, PagePack: true}
		default:
			return PGOPasses{}, fmt.Errorf("%q (want a comma-separated subset of inline,superblock,hotcold,pagepack, or all/none)", tok)
		}
	}
	return p, nil
}

// Estimator resolves the -estimator flag every pipeline CLI exposes. The
// EM default returns nil: the pipeline tunes its kernel to the timer tick
// internally, so callers must leave the config's Estimator unset for it.
// "robust" is EM with its kernel at the tick inside the outlier-trimming,
// confidence-gating robust estimator, every other knob at its default.
func Estimator(name string, tick int) (tomography.Estimator, error) {
	switch name {
	case "em":
		return nil, nil
	case "robust":
		return tomography.Robust{Config: tomography.RobustConfig{EM: tomography.EMConfig{KernelHalfWidth: float64(tick)}}}, nil
	case "moments":
		return tomography.Moments{}, nil
	case "histogram":
		return tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: float64(tick)}}, nil
	default:
		return nil, fmt.Errorf("%q (want em, robust, moments, or histogram)", name)
	}
}

// Predictor resolves a -predictor flag: nt (predict not taken) or btfn
// (backward taken, forward not taken).
func Predictor(name string) (mote.Predictor, error) {
	switch name {
	case "nt":
		return mote.StaticNotTaken{}, nil
	case "btfn":
		return mote.BTFN{}, nil
	default:
		return nil, fmt.Errorf("unknown predictor %q (want nt or btfn)", name)
	}
}

// Profile starts a pprof CPU profile into cpuPath and arranges a heap
// profile into memPath; an empty path skips that profile. The returned
// stop writes the heap profile (of the live heap), then ends the CPU
// profile, and reports the first error, the CPU profile file's Close
// included.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	heap := func() error {
		f, err := os.Create(memPath)
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
	return func() error {
		var first error
		if memPath != "" {
			first = heap()
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); first == nil {
				first = err
			}
		}
		return first
	}, nil
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
