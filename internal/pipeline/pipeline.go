// Package pipeline is the one estimation core behind Run, RunFleet, the
// base station's snapshots, and the evaluation harness. The paper's
// method is one chain, and each stage lives here once:
//
//  1. profile: Mote builds under a cost model and runs under the same one;
//  2. model: Settings.Model, with the shared bounds and StaticResolve;
//  3. gate: TrustPolicy.Admit (sample count, a model, coverage);
//  4. estimate: Settings.Batch, or a Stream fed batch by batch;
//  5. correct: Correct, whenever a procedure lost partials to power cuts;
//  6. check: TrustPolicy.Accept (static envelope, estimator confidence);
//  7. place and measure: Plan, then Mote.Measure.
//
// Callers keep only their schedule: when models are built, how samples
// are batched, and what a failure costs.
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// The estimation defaults every caller shares; a zero config field selects
// them. MaxPaths caps path enumeration per procedure.
const (
	DefaultTickDiv     = 8
	DefaultMinSamples  = 50
	DefaultMinCoverage = 0.85
	DefaultMaxVisits   = 12
	MaxPaths           = 30000
)

// TrustPolicy decides whether a procedure's estimate may drive placement.
type TrustPolicy struct {
	MinSamples  int
	MinCoverage float64
	// TickDiv is the timer prescaler in cycles: the coverage half-width
	// and the envelope check's slack.
	TickDiv int
}

// Settings is the estimation configuration. Every caller maps its config
// onto it, so a field means the same thing on every path.
type Settings struct {
	TrustPolicy
	// Predictor is the profiled motes' branch predictor; it fixes the
	// per-edge penalty cycles of the path models.
	Predictor mote.Predictor
	Estimator tomography.Estimator
	// MaxVisits bounds loop unrolling during path enumeration.
	MaxVisits int
	// StaticResolve pins statically proven branches in every model and
	// gives it the static envelope Accept checks fits against.
	StaticResolve bool
	// A Stream stops re-estimating once no branch probability has moved
	// more than ConvergeTol for ConvergePatience consecutive batches (zero
	// selects tomography.NewIncremental's defaults).
	ConvergeTol      float64
	ConvergePatience int
}

// Validate rejects negative knobs and out-of-range fractions; zero values
// select the defaults.
func (s Settings) Validate() error {
	switch {
	case s.TickDiv < 0:
		return fmt.Errorf("TickDiv = %d; must be positive (zero selects the default of %d)", s.TickDiv, DefaultTickDiv)
	case s.MinSamples < 0:
		return fmt.Errorf("MinSamples = %d; must be positive (zero selects the default of %d)", s.MinSamples, DefaultMinSamples)
	case s.MaxVisits < 0:
		return fmt.Errorf("MaxVisits = %d; must be positive (zero selects the default of %d)", s.MaxVisits, DefaultMaxVisits)
	case s.MinCoverage < 0 || s.MinCoverage > 1:
		return fmt.Errorf("MinCoverage = %v; must be a fraction in [0, 1] (zero selects the default of %v)", s.MinCoverage, DefaultMinCoverage)
	case s.ConvergeTol < 0:
		return fmt.Errorf("ConvergeTol = %v; must be positive (zero selects the default of 1e-3)", s.ConvergeTol)
	case s.ConvergePatience < 0:
		return fmt.Errorf("ConvergePatience = %d; must be positive (zero selects the default of 2)", s.ConvergePatience)
	}
	return nil
}

// WithDefaults fills every zero field but the streaming early stop with
// the shared default.
func (s Settings) WithDefaults() Settings {
	if s.TickDiv <= 0 {
		s.TickDiv = DefaultTickDiv
	}
	if s.MinSamples <= 0 {
		s.MinSamples = DefaultMinSamples
	}
	if s.MinCoverage <= 0 {
		s.MinCoverage = DefaultMinCoverage
	}
	if s.MaxVisits <= 0 {
		s.MaxVisits = DefaultMaxVisits
	}
	if s.Predictor == nil {
		s.Predictor = mote.StaticNotTaken{}
	}
	if s.Estimator == nil {
		s.Estimator = tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: float64(s.TickDiv)}}
	}
	return s
}

// Model builds one procedure's path model from an instrumented build.
func (s Settings) Model(prof *compile.Output, proc string) (*tomography.Model, error) {
	enum := markov.EnumerateOptions{MaxVisits: s.MaxVisits, MaxPaths: MaxPaths}
	return tomography.NewModelOpts(prof, proc, s.Predictor, enum, tomography.ModelOptions{StaticResolve: s.StaticResolve})
}

// Decision is a TrustPolicy verdict: Trusted, or why the estimate may not
// drive placement.
type Decision uint8

const (
	Trusted           Decision = iota
	TooFewSamples              // fewer than MinSamples durations
	NoModel                    // the path model could not be built or fitted
	LowCoverage                // the model explains under MinCoverage of the samples
	EnvelopeViolation          // the fit's mean duration is statically infeasible
	LowConfidence              // the estimator distrusts its own fit
)

var decisionNames = [...]string{"trusted", "too few samples", "no model", "low coverage", "envelope violation", "low confidence"}

func (d Decision) String() string { return decisionNames[d] }

// Admit is the pre-estimation gate over one procedure's samples. build
// supplies the model, on demand or prebuilt as the caller schedules it,
// and runs only once the sample gate passes. A build error comes back with
// NoModel; the caller decides whether it is fatal.
func (p TrustPolicy) Admit(samples []float64, build func() (*tomography.Model, error)) (*tomography.Model, Decision, error) {
	if len(samples) < p.MinSamples {
		return nil, TooFewSamples, nil
	}
	m, err := build()
	if err != nil || m == nil {
		return nil, NoModel, err
	}
	if m.Coverage(samples, float64(p.TickDiv)) < p.MinCoverage {
		return m, LowCoverage, nil
	}
	return m, Trusted, nil
}

// Accept is the post-estimation check on a corrected fit.
func (p TrustPolicy) Accept(m *tomography.Model, probs markov.EdgeProbs, confident bool) Decision {
	if !m.EnvelopeCheck(probs, float64(p.TickDiv)) {
		return EnvelopeViolation
	}
	if !confident {
		return LowConfidence
	}
	return Trusted
}

// Correct is the truncation correction: long paths die more often under
// harvested power, so whenever a procedure lost partials its completed-
// sample estimate is tilted back before it is scored or placed.
func Correct(m *tomography.Model, probs markov.EdgeProbs, lost, completed int) markov.EdgeProbs {
	if lost <= 0 || completed <= 0 || probs == nil {
		return probs
	}
	return m.DebiasTruncation(probs, lost, completed)
}

// Stream is one procedure's streaming estimate: warm-started incremental
// re-estimation as batches arrive (uplink rounds, station epochs), plus
// the lost partials its truncation correction needs.
type Stream struct {
	Name string
	*tomography.Incremental
	Lost int
}

// Stream starts a procedure's stream under the settings' estimator.
func (s Settings) Stream(name string, m *tomography.Model) *Stream {
	return &Stream{Name: name, Incremental: tomography.NewIncremental(m, s.Estimator, s.ConvergeTol, s.ConvergePatience)}
}

// ObserveOn feeds streams[i] its batches[i] in order, the streams in
// parallel on the pool. Each stream runs single-threaded, so the result is
// independent of the schedule. A batch that leaves a stream still empty is
// not an error: there is nothing to estimate yet.
func ObserveOn(pool *fleet.Pool, streams []*Stream, batches [][][]float64) error {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		i, st := i, st
		pool.Go(&wg, func() {
			for _, b := range batches[i] {
				if _, err := st.Observe(b); err != nil && !errors.Is(err, tomography.ErrNoSamples) {
					errs[i] = fmt.Errorf("estimate %s: %w", st.Name, err)
					return
				}
			}
		})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Outcome is one branchy procedure's pass through the stages.
type Outcome struct {
	Proc    *cfg.Proc
	Samples int
	// Model is nil when the sample gate failed or the build did.
	Model *tomography.Model
	// Probs is the corrected estimate; nil unless one was made.
	Probs    markov.EdgeProbs
	Decision Decision
	// Err is a model-build or estimator failure (Decision is NoModel).
	Err error
}

// Batch runs every procedure of one profile through the stages, from the
// exclusive tick counts by procedure index. It returns each branchy
// procedure's outcome in CFG order, and the placement input: the trusted
// estimates plus a uniform placeholder per branchless procedure. A
// single mains-powered run loses no partials, so nothing is corrected, and
// a batch fit carries no confidence verdict.
func (s Settings) Batch(prof *compile.Output, ticks map[int][]uint64) ([]Outcome, map[string]markov.EdgeProbs) {
	probs := make(map[string]markov.EdgeProbs)
	var procs []Outcome
	for _, p := range prof.CFG.Procs {
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		samples := trace.DurationsCycles(ticks[prof.Meta.ProcByName[p.Name].Index], s.TickDiv)
		o := Outcome{Proc: p, Samples: len(samples)}
		var err error
		if o.Model, o.Decision, err = s.Admit(samples, func() (*tomography.Model, error) { return s.Model(prof, p.Name) }); err != nil {
			o.Err = fmt.Errorf("model %s: %w", p.Name, err)
		}
		if o.Decision == Trusted {
			if o.Probs, err = s.Estimator.Estimate(o.Model, samples); err != nil {
				o.Decision, o.Err = NoModel, fmt.Errorf("estimate %s: %w", p.Name, err)
			} else if o.Decision = s.Accept(o.Model, o.Probs, true); o.Decision == Trusted {
				probs[p.Name] = o.Probs
			}
		}
		procs = append(procs, o)
	}
	return procs, probs
}

// Plan is the placement stage: Pettis–Hansen layouts for every procedure
// in probs and, when passes selects any PGO pass, those passes with their
// edge weights. The PGO build recomputes layouts from the pass-transformed
// weights, so the plan is then ignored.
func Plan(prog *cfg.Program, probs map[string]markov.EdgeProbs, passes compile.PGOOptions) (layout.Plan, *compile.PGOOptions) {
	plan := layout.PlanAll(prog, probs)
	if !passes.Inline && !passes.Superblock && !passes.HotCold && !passes.PagePack {
		return plan, nil
	}
	passes.Weights = Weights(prog, probs)
	return plan, &passes
}

// Weights converts estimates into PGO edge weights, as placement does.
// Branchless procedures get none: their uniform placeholder is not profile
// data, and page packing in particular reorders and pads whatever it has
// weights for.
func Weights(prog *cfg.Program, probs map[string]markov.EdgeProbs) map[string]compile.ProcWeights {
	weights := make(map[string]compile.ProcWeights, len(probs))
	for _, p := range prog.Procs {
		if ep, ok := probs[p.Name]; ok && len(p.BranchBlocks()) > 0 {
			weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, ep))
		}
	}
	return weights
}

// Mote is the mote factory: the machine every pipeline build runs on.
type Mote struct {
	TickDiv   int
	Predictor mote.Predictor
	MaxCycles uint64
	// Cost is the cost model of every build and of the mote running it
	// (nil: the ISA default), unless the build options carry their own.
	Cost *isa.CostModel
	// FuseCompares and RotateLoops are added to every build's options.
	FuseCompares, RotateLoops bool
	// Inputs returns fresh sensor and entropy streams, once per mote, so
	// every run of a pipeline sees the identical input.
	Inputs func() (sensor, entropy mote.SampleSource, err error)
}

// Workload is the usual Inputs: the named input regime and an entropy
// stream, both drawn from one generator seeded with seed.
func Workload(regime string, seed int64) func() (mote.SampleSource, mote.SampleSource, error) {
	return func() (mote.SampleSource, mote.SampleSource, error) {
		rng := stats.NewRNG(seed)
		sensor, ok := workload.Named(regime, rng)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", regime)
		}
		return sensor, workload.NewEntropy(rng.Fork()), nil
	}
}

// Config is the machine shape without inputs.
func (m Mote) Config() mote.Config {
	mc := mote.DefaultConfig()
	mc.TickDiv, mc.Predictor = m.TickDiv, m.Predictor
	if m.Cost != nil {
		mc.Cost = m.Cost
	}
	return mc
}

// New returns a fresh mote loaded with code and fed fresh inputs.
func (m Mote) New(code []isa.Instr) (*mote.Machine, error) {
	mc := m.Config()
	if m.Inputs != nil {
		var err error
		if mc.Sensor, mc.Entropy, err = m.Inputs(); err != nil {
			return nil, err
		}
	}
	return mote.New(code, mc), nil
}

// Execute builds source with opts and runs it to completion on a fresh
// mote under the build's cost model.
func (m Mote) Execute(source string, opts compile.Options) (*compile.Output, *mote.Machine, error) {
	opts.FuseCompares = opts.FuseCompares || m.FuseCompares
	opts.RotateLoops = opts.RotateLoops || m.RotateLoops
	if opts.Cost == nil {
		opts.Cost = m.Cost
	}
	out, err := compile.Build(source, opts)
	if err != nil {
		return nil, nil, err
	}
	m.Cost = opts.Cost
	mach, err := m.New(out.Code)
	if err == nil {
		err = mach.Run(m.MaxCycles)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, mach, nil
}

// ErrOutputChanged reports that the optimized binary produced different
// output — a pipeline bug, never expected.
var ErrOutputChanged = errors.New("codetomo: optimized layout changed program output")

// Measure is the tail of the chain: run the uninstrumented binary under
// the original and the planned layout on the identical input, and verify
// the optimization preserved the program's output.
func (m Mote) Measure(source string, plan layout.Plan, pgo *compile.PGOOptions) (before, after *mote.Machine, err error) {
	if _, before, err = m.Execute(source, compile.Options{}); err != nil {
		return nil, nil, err
	}
	if _, after, err = m.Execute(source, compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints, PGO: pgo}); err != nil {
		return nil, nil, err
	}
	if !slices.Equal(before.DebugOutput(), after.DebugOutput()) {
		return nil, nil, ErrOutputChanged
	}
	return before, after, nil
}
