// Package pipeline is the one estimation core behind Run, RunFleet, the
// base station's snapshots, and the evaluation harness. The paper's
// method is one chain, and each stage lives here once:
//
//  1. profile: Mote builds under a cost model and runs under the same one;
//  2. model: Settings.Model, with the shared bounds, the timer tick and
//     StaticResolve;
//  3. gate: TrustPolicy.Admit (sample count, a model, coverage);
//  4. estimate: Settings.Stream, fed by ObserveOn or Settings.Batch;
//  5. decide: TrustPolicy.Decide (truncation correction, the gate again,
//     static envelope, estimator confidence);
//  6. place and measure: Placement, Plan, then Mote.Measure against a
//     Mote.Baseline started at the outset.
//
// Outcome, one per Branchy procedure, is the record through the stages.
// Callers keep only their schedule: when models are built, how samples
// are batched, and what a failure costs.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/workload"
)

// The defaults every caller shares; a zero config field selects them.
// MaxPaths caps path enumeration per procedure.
const (
	DefaultTickDiv     = tomography.DefaultTickDiv
	DefaultMaxCycles   = 2_000_000_000
	DefaultMinSamples  = 50
	DefaultMinCoverage = 0.85
	DefaultMaxVisits   = 12
	MaxPaths           = 30000
)

// TrustPolicy decides whether a procedure's estimate may drive placement.
// The coverage half-width and the envelope check's slack are the model's
// timer tick.
type TrustPolicy struct {
	MinSamples  int
	MinCoverage float64
}

// Settings is the estimation configuration. Every caller maps its config
// onto it, so a field means the same thing on every path.
type Settings struct {
	TrustPolicy
	// TickDiv is the timer prescaler in cycles. Settings.Model gives it to
	// every model, and every width that absorbs timer quantization reads
	// it from there.
	TickDiv int
	// Predictor is the profiled motes' branch predictor; it fixes the
	// per-edge penalty cycles of the path models.
	Predictor mote.Predictor
	Estimator tomography.Estimator
	// MaxVisits bounds loop unrolling during path enumeration.
	MaxVisits int
	// StaticResolve pins statically proven branches in every model and
	// gives it the static envelope Decide checks fits against.
	StaticResolve bool
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
	}
	if _, ok := s.Predictor.(mote.TrainablePredictor); ok {
		return fmt.Errorf("predictor %q is stateful (TrainablePredictor); pipeline motes run concurrently and cannot share trained state", s.Predictor.Name())
	}
	return nil
}

// WithDefaults fills every zero field with the shared default.
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
		s.Estimator = tomography.EM{}
	}
	return s
}

// Model builds one procedure's path model from an instrumented build.
func (s Settings) Model(prof *compile.Output, proc string) (*tomography.Model, error) {
	enum := markov.EnumerateOptions{MaxVisits: s.MaxVisits, MaxPaths: MaxPaths}
	return tomography.NewModelOpts(prof, proc, s.Predictor, enum, tomography.ModelOptions{TickDiv: s.TickDiv, StaticResolve: s.StaticResolve})
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
func (p TrustPolicy) Admit(samples tomography.SampleCounts, build func() (*tomography.Model, error)) (*tomography.Model, Decision, error) {
	if samples.N() < p.MinSamples {
		return nil, TooFewSamples, nil
	}
	m, err := build()
	if err != nil || m == nil {
		return nil, NoModel, err
	}
	if m.CoverageCounts(samples, m.Tick()) < p.MinCoverage {
		return m, LowCoverage, nil
	}
	return m, Trusted, nil
}

// Decide closes the chain on everything o's stream has absorbed so far,
// setting Samples, Probs, Trimmed and Decision. Long paths die more often
// under harvested power, so when o lost partials the estimate is first
// tilted back; then come the sample gate (Admit) over the stream's
// histogram, NoModel for a gated-in stream without an estimate, the
// static envelope check and the estimator's confidence.
func (p TrustPolicy) Decide(o *Outcome) {
	h := o.Stream.Counts()
	o.Samples, o.Probs, o.Trimmed = h.N(), o.Stream.Probs(), o.Stream.Trimmed()
	if o.Lost > 0 && o.Samples > 0 && o.Probs != nil {
		o.Probs = o.Model.DebiasTruncation(o.Probs, o.Lost, o.Samples)
	}
	if _, o.Decision, _ = p.Admit(h, func() (*tomography.Model, error) { return o.Model, nil }); o.Decision != Trusted {
		return
	}
	switch {
	case o.Probs == nil:
		o.Decision = NoModel
	case !o.Model.EnvelopeCheck(o.Probs, o.Model.Tick()):
		o.Decision = EnvelopeViolation
	case !o.Stream.Confident():
		o.Decision = LowConfidence
	}
}

// Stream sets o's model to m and starts its warm-started stream under the
// settings' estimator.
func (s Settings) Stream(o *Outcome, m *tomography.Model) {
	o.Model, o.Stream = m, tomography.NewIncremental(m, s.Estimator)
}

// ObserveOn feeds procs[i]'s stream its batches[i] in order, the streams
// in parallel on the pool. Each stream runs single-threaded, so the result
// is independent of the schedule. A batch that leaves a stream still empty
// is not an error: there is nothing to estimate yet.
func ObserveOn(pool *fleet.Pool, procs []*Outcome, batches [][]tomography.SampleCounts) error {
	errs := make([]error, len(procs))
	pool.Each(len(procs), func(_, i int) {
		o := procs[i]
		for _, b := range batches[i] {
			if _, err := o.Stream.Observe(b); err != nil && !errors.Is(err, tomography.ErrNoSamples) {
				errs[i] = fmt.Errorf("estimate %s: %w", o.Proc.Name, err)
				return
			}
		}
	})
	return errors.Join(errs...)
}

// Outcome is one branchy procedure's record, from model build to
// placement input.
type Outcome struct {
	Proc *cfg.Proc
	// Index is the procedure's trace and metadata index.
	Index   int
	Samples int
	// Model is nil when the sample gate failed or the build did.
	Model *tomography.Model
	// Stream is nil unless the procedure's estimate was started.
	Stream *tomography.Incremental
	// Lost counts the partials power cuts truncated, for Decide.
	Lost int
	// Probs is the corrected estimate; nil unless one was made.
	Probs markov.EdgeProbs
	// Trimmed counts the samples the robust estimator discarded as
	// outliers (0 under the other estimators).
	Trimmed  int
	Decision Decision
	// Err is a model-build or estimator failure (Decision is NoModel).
	Err error
}

// Branchy returns an outcome for each branchy procedure of prof, in CFG
// order, with Proc and Index filled in.
func Branchy(prof *compile.Output) []Outcome {
	var procs []Outcome
	for _, p := range prof.CFG.Procs {
		if len(p.BranchBlocks()) > 0 {
			procs = append(procs, Outcome{Proc: p, Index: prof.Meta.ProcByName[p.Name].Index})
		}
	}
	return procs
}

// Placement is the placement input: the trusted estimates of procs plus
// a uniform placeholder for each branchless procedure of prog.
func Placement(prog *cfg.Program, procs []Outcome) map[string]markov.EdgeProbs {
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range prog.Procs {
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
		}
	}
	for _, o := range procs {
		if o.Decision == Trusted {
			probs[o.Proc.Name] = o.Probs
		}
	}
	return probs
}

// Batch runs every procedure of one profile through the stages, from the
// exclusive tick counts by procedure index. Each branchy procedure is its
// own task on a pool of GOMAXPROCS workers: it depends on its own samples
// only and writes only its own outcome, so the result does not depend on
// the schedule. It returns each branchy procedure's outcome in CFG order,
// and the placement input. Each admitted procedure's histogram goes to
// its stream as one batch, so Decide checks the estimator's confidence
// exactly as on the streaming paths. A single mains-powered run loses no
// partials, so nothing is corrected.
func (s Settings) Batch(prof *compile.Output, ticks map[int][]uint64) ([]Outcome, map[string]markov.EdgeProbs) {
	procs := Branchy(prof)
	fleet.NewPool(runtime.GOMAXPROCS(0)).Each(len(procs), func(_, i int) { s.batchProc(&procs[i], prof, ticks[procs[i].Index]) })
	return procs, Placement(prof.CFG, procs)
}

// batchProc is one procedure's Batch task: gate, model, estimate, decide.
// The model is built only once the sample gate passes.
func (s Settings) batchProc(o *Outcome, prof *compile.Output, ticks []uint64) {
	name := o.Proc.Name
	o.Samples = len(ticks)
	// The histogram of the durations in cycles, added up tick by tick:
	// tick-quantized durations take few distinct values, so it stays small.
	var h tomography.SampleCounts
	for _, t := range ticks {
		h.Add(float64(t)*float64(s.TickDiv), 1)
	}
	var err error
	if o.Model, o.Decision, err = s.Admit(h, func() (*tomography.Model, error) { return s.Model(prof, name) }); err != nil {
		o.Err = fmt.Errorf("model %s: %w", name, err)
	}
	if o.Decision != Trusted {
		return
	}
	s.Stream(o, o.Model)
	if _, err := o.Stream.Observe(h); err != nil {
		o.Decision, o.Err = NoModel, fmt.Errorf("estimate %s: %w", name, err)
		return
	}
	s.Decide(o)
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
	// every run of a pipeline sees the identical input. Motes of one
	// pipeline run concurrently, so it may be called concurrently.
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
	if opts.Cost != nil {
		m.Cost = opts.Cost
	}
	out, err := m.build(source, opts)
	if err != nil {
		return nil, nil, err
	}
	mach, err := m.run(out.Code)
	if err != nil {
		return nil, nil, err
	}
	return out, mach, nil
}

// build compiles source with opts plus the mote's backend flags and, when
// opts carries none, its cost model.
func (m Mote) build(source string, opts compile.Options) (*compile.Output, error) {
	opts.FuseCompares = opts.FuseCompares || m.FuseCompares
	opts.RotateLoops = opts.RotateLoops || m.RotateLoops
	if opts.Cost == nil {
		opts.Cost = m.Cost
	}
	return compile.Build(source, opts)
}

// run executes code to completion on a fresh mote.
func (m Mote) run(code []isa.Instr) (*mote.Machine, error) {
	mach, err := m.New(code)
	if err == nil {
		err = mach.Run(m.MaxCycles)
	}
	return mach, err
}

// ErrOutputChanged reports that the optimized binary produced different
// output — a pipeline bug, never expected.
var ErrOutputChanged = errors.New("codetomo: optimized layout changed program output")

// Baseline waits for the original-layout build and run of a source and
// returns the build, whose code Measure compares, and the mote that ran it.
type Baseline func() (*compile.Output, *mote.Machine, error)

// Baseline starts the original-layout build and run of source in the
// background and returns the wait for it. The run depends on nothing
// estimated, so it overlaps profiling and estimation. The wait may be
// called any number of times; a caller that starts a baseline waits for it
// on every path, so the goroutine never outlives the caller.
func (m Mote) Baseline(source string) Baseline {
	var (
		out  *compile.Output
		mach *mote.Machine
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		out, mach, err = m.Execute(source, compile.Options{})
	}()
	return func() (*compile.Output, *mote.Machine, error) {
		<-done
		return out, mach, err
	}
}

// Measure is the tail of the chain: run the uninstrumented binary under
// the planned layout on the same input as the baseline, and verify the
// optimization preserved the program's output. A mote's run depends only
// on its code, the mote's cost model and budget, and inputs drawn fresh
// from the same seed, so a placed image equal to the baseline's word for
// word is not run again: the baseline's mote comes back as after too. It
// always waits for the baseline; the baseline's error wins, as it would
// have run first.
func (m Mote) Measure(source string, baseline Baseline, plan layout.Plan, pgo *compile.PGOOptions) (before, after *mote.Machine, err error) {
	out, afterErr := m.build(source, compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints, PGO: pgo})
	orig, before, err := baseline()
	if err != nil {
		return nil, nil, err
	}
	if afterErr != nil {
		return nil, nil, afterErr
	}
	if slices.Equal(out.Code, orig.Code) {
		return before, before, nil
	}
	if after, err = m.run(out.Code); err != nil {
		return nil, nil, err
	}
	if !slices.Equal(before.DebugOutput(), after.DebugOutput()) {
		return nil, nil, ErrOutputChanged
	}
	return before, after, nil
}
