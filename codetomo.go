// Package codetomo is the public face of the Code Tomography
// reproduction: estimation-based profiling for code placement optimization
// in sensor network programs (Wan, Cao, Zhou — ISPASS 2015).
//
// The pipeline it exposes is the paper's workflow end to end:
//
//  1. compile a MiniC sensor program with timestamp instrumentation at
//     procedure boundaries (the only measurement Code Tomography needs);
//  2. run it on the simulated M16 mote under a nondeterministic workload,
//     collecting the quantized entry/exit timer readings;
//  3. model each procedure as a discrete-time Markov chain over its basic
//     blocks and estimate the branch probabilities from the end-to-end
//     duration samples alone;
//  4. feed the estimates back to the compiler's block-placement pass
//     (Pettis–Hansen chaining) and rebuild without instrumentation;
//  5. re-run and report the branch misprediction and cycle improvements.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the full
// evaluation; package internal/bench regenerates every table and figure.
package codetomo

import (
	"fmt"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// Config tunes a pipeline run. The zero value is usable: it profiles with
// the Gaussian workload, an 8-cycle timer tick, and the predict-not-taken
// pipeline.
type Config struct {
	// Workload names the input regime: gaussian, uniform, bursty, regime,
	// or diurnal (default gaussian). Sensor, if non-nil, overrides it: it
	// is called once per mote for a fresh stream, so the profile, original
	// and optimized runs all see the same input. The runs are concurrent,
	// so it must be safe to call concurrently and must not return one
	// stream twice.
	Workload string
	Sensor   func() mote.SampleSource
	// Seed drives all randomness (default 1).
	Seed int64
	// TickDiv is the hardware timer prescaler in cycles (default 8).
	TickDiv int
	// Predictor is the static branch predictor (default predict-not-taken).
	Predictor mote.Predictor
	// Estimator selects the estimation strategy (default EM tuned to the
	// timer resolution). tomography.Robust trims model-implausible
	// outliers and keeps the baseline layout for procedures whose
	// estimate it does not trust.
	Estimator tomography.Estimator
	// MinSamples is the fewest observations required to estimate a
	// procedure; below it the procedure is untrusted and keeps its
	// original layout (default 50).
	MinSamples int
	// MaxCycles bounds each simulated run (default 2e9).
	MaxCycles uint64
	// MaxVisits bounds loop unrolling during path enumeration (default 12).
	MaxVisits int
	// MinCoverage is the fraction of duration samples the path model must
	// explain for an estimate to be trusted; below it the procedure keeps
	// its original layout (default 0.85).
	MinCoverage float64
	// FuseCompares and RotateLoops enable the backend's optional
	// optimization passes in every build of the pipeline.
	FuseCompares bool
	RotateLoops  bool
	// StaticResolve feeds the compiler's value-range analysis into the
	// estimator: branches proven one-way are pinned instead of estimated
	// (fewer free parameters, fewer spurious mixture components), and each
	// fitted estimate is sanity-checked against the procedure's static
	// feasible duration envelope. Off by default.
	StaticResolve bool
	// PGOInline, PGOSuperblock, PGOHotCold, and PGOPagePack enable the
	// profile-guided optimization passes beyond placement in the optimized
	// rebuild (see compile.PGOOptions), driven by the same estimated
	// probabilities that drive placement. All off by default.
	PGOInline     bool
	PGOSuperblock bool
	PGOHotCold    bool
	PGOPagePack   bool
	// PageCrossPenalty, when positive, charges that many cycles on every
	// executed control transfer landing on a different flash page — in the
	// simulated mote and the timing metadata of every build Run makes
	// (default 0: uniform flash). RunFleet's profiling motes run on uniform
	// flash; only its two measurement builds charge the penalty.
	PageCrossPenalty int
}

// Validate rejects configurations Run cannot honor. Zero values are legal
// everywhere — they select the documented defaults — but negative knobs
// and out-of-range fractions are configuration bugs and fail loudly
// instead of being silently clamped.
func (c Config) Validate() error {
	if err := c.settings().Validate(); err != nil {
		return fmt.Errorf("codetomo: %w", err)
	}
	if c.PageCrossPenalty < 0 {
		return fmt.Errorf("codetomo: PageCrossPenalty = %d; must be non-negative (zero models uniform flash)", c.PageCrossPenalty)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "gaussian"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = pipeline.DefaultMaxCycles
	}
	s := c.settings().WithDefaults()
	c.TickDiv, c.MinSamples, c.MinCoverage = s.TickDiv, s.MinSamples, s.MinCoverage
	c.Predictor, c.Estimator, c.MaxVisits = s.Predictor, s.Estimator, s.MaxVisits
	return c
}

// RunStats summarizes one execution.
type RunStats struct {
	Cycles        uint64
	Instructions  uint64
	CondBranches  uint64
	TakenBranches uint64
	Mispredicts   uint64
	EnergyUJ      float64
}

// MispredictRate is Mispredicts / CondBranches (0 when no branches ran).
func (s RunStats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

func runStats(m *mote.Machine) RunStats {
	s := m.Stats()
	return RunStats{
		Cycles:        s.Cycles,
		Instructions:  s.Instructions,
		CondBranches:  s.CondBranches,
		TakenBranches: s.TakenBranches,
		Mispredicts:   s.Mispredicts,
		EnergyUJ:      mote.DefaultEnergyModel().Energy(s),
	}
}

// BranchEstimate is one estimated branch edge.
type BranchEstimate struct {
	// FromBlock and ToBlock are CFG block IDs within the procedure.
	FromBlock, ToBlock int
	// Prob is the Code Tomography estimate; Oracle is the simulator's
	// ground truth for the same run.
	Prob, Oracle float64
	// Ambiguity is the structural identifiability diagnostic for the
	// source branch (tomography.Model.BranchAmbiguity): mass of execution
	// paths whose durations cannot reveal this branch's direction at the
	// measured timer resolution. Values near 1 mean Prob should not be
	// trusted even when the estimator converged.
	Ambiguity float64
}

// ProcEstimate is the estimation outcome for one procedure.
type ProcEstimate struct {
	Proc string
	// SampleCount is the number of duration observations used.
	SampleCount int
	// Branches lists the branch edges with estimated and true
	// probabilities; empty under Fallback.
	Branches []BranchEstimate
	// MAE is the mean absolute error against the oracle.
	MAE float64
	// Fallback reports the procedure had no estimate to trust (too few
	// samples, no model, low coverage, or a fit outside the static
	// envelope), so it kept its original layout.
	Fallback bool
	// TrimmedSamples counts observations the robust estimator discarded
	// as model-implausible outliers (0 under plain estimation).
	TrimmedSamples int
	// LostPartials counts invocations of this procedure that were
	// power-truncated mid-execution (intermittent fleets only). They carry
	// no duration, but their count corrects the survival bias of the
	// completed samples.
	LostPartials int
	// LowConfidence reports the robust estimator did not trust its own
	// result (excessive trimming or non-convergence); the procedure's
	// layout was left at the baseline instead of being optimized on it.
	LowConfidence bool
	// ResolvedBranches counts branch blocks the static value-range
	// analysis proved one-way under Config.StaticResolve; they were pinned
	// rather than estimated and are excluded from Branches and MAE.
	ResolvedBranches int
	// EnvelopeViolation reports that the fitted estimate implied an
	// expected duration outside the procedure's static feasible envelope
	// (Config.StaticResolve only); the estimate was discarded and the
	// procedure's layout left at the baseline.
	EnvelopeViolation bool
}

// Result is the outcome of one full pipeline run.
type Result struct {
	// Estimates holds per-procedure estimation results (procedures with
	// branches only).
	Estimates []ProcEstimate
	// Before and After are the uninstrumented runs under the original and
	// the tomography-optimized layout, on the identical workload.
	Before, After RunStats
	// Output is the optimized binary's debug-port output (must equal the
	// original's; the pipeline verifies this).
	Output []uint16
}

// MispredictReduction returns the relative misprediction-rate improvement
// (0.25 = 25% fewer mispredicts per branch).
func (r *Result) MispredictReduction() float64 {
	b := r.Before.MispredictRate()
	if b == 0 {
		return 0
	}
	return (b - r.After.MispredictRate()) / b
}

// Speedup returns Before.Cycles / After.Cycles.
func (r *Result) Speedup() float64 {
	if r.After.Cycles == 0 {
		return 0
	}
	return float64(r.Before.Cycles) / float64(r.After.Cycles)
}

// ErrOutputChanged reports that the optimized binary produced different
// output — a pipeline bug, never expected.
var ErrOutputChanged = pipeline.ErrOutputChanged

// ambiguityWindow is the collision distance used for the identifiability
// diagnostic: paths closer than ~a quarter tick produce essentially
// identical tick distributions and carry no separating signal.
func ambiguityWindow(tickDiv int) float64 {
	w := float64(tickDiv) / 4
	if w < 1 {
		w = 1
	}
	return w
}

// settings maps the config onto the shared estimation settings.
func (c Config) settings() pipeline.Settings {
	return pipeline.Settings{
		TrustPolicy:   pipeline.TrustPolicy{MinSamples: c.MinSamples, MinCoverage: c.MinCoverage, TickDiv: c.TickDiv},
		Predictor:     c.Predictor,
		Estimator:     c.Estimator,
		MaxVisits:     c.MaxVisits,
		StaticResolve: c.StaticResolve,
	}
}

// mote is the config's mote factory: every build carries the backend
// flags and the page-cross cost model, and every run replays the
// config's seeded workload.
func (c Config) mote() pipeline.Mote {
	var cost *isa.CostModel
	if c.PageCrossPenalty > 0 {
		cost = isa.DefaultCostModel()
		cost.PageCrossPenalty = uint32(c.PageCrossPenalty)
	}
	return pipeline.Mote{
		TickDiv:      c.TickDiv,
		Predictor:    c.Predictor,
		MaxCycles:    c.MaxCycles,
		Cost:         cost,
		FuseCompares: c.FuseCompares,
		RotateLoops:  c.RotateLoops,
		Inputs: func() (mote.SampleSource, mote.SampleSource, error) {
			entropy := workload.NewEntropy(stats.NewRNG(c.Seed + 7919))
			if c.Sensor != nil {
				return c.Sensor(), entropy, nil
			}
			s, ok := workload.Named(c.Workload, stats.NewRNG(c.Seed))
			if !ok {
				return nil, nil, fmt.Errorf("codetomo: unknown workload %q", c.Workload)
			}
			return s, entropy, nil
		},
	}
}

// measure is the tail every pipeline shares: place (plus the selected PGO
// passes) on probs, then run the optimized build on the config's mote and
// workload against the baseline, the original build started at the outset.
func (c Config) measure(source string, baseline func() (*mote.Machine, error), prog *cfg.Program, probs map[string]markov.EdgeProbs) (before, after RunStats, output []uint16, err error) {
	plan, pgo := pipeline.Plan(prog, probs, compile.PGOOptions{
		Inline: c.PGOInline, Superblock: c.PGOSuperblock, HotCold: c.PGOHotCold, PagePack: c.PGOPagePack,
	})
	b, a, err := c.mote().Measure(source, baseline, plan, pgo)
	if err != nil {
		return RunStats{}, RunStats{}, nil, err
	}
	return runStats(b), runStats(a), a.DebugOutput(), nil
}

// procEstimate reports one procedure's outcome, scored against the
// simulator's oracle; every flag derives from the trust decision.
func procEstimate(o pipeline.Outcome, lost int, oracle markov.EdgeProbs, tickDiv int) ProcEstimate {
	pe := ProcEstimate{
		Proc:              o.Proc.Name,
		SampleCount:       o.Samples,
		TrimmedSamples:    o.Trimmed,
		LostPartials:      lost,
		Fallback:          o.Decision != pipeline.Trusted && o.Decision != pipeline.LowConfidence,
		LowConfidence:     o.Decision == pipeline.LowConfidence,
		EnvelopeViolation: o.Decision == pipeline.EnvelopeViolation,
	}
	if o.Model != nil {
		pe.ResolvedBranches = resolvedBranchCount(o.Model)
	}
	if !pe.Fallback {
		// Low-confidence estimates are reported, but do not drive placement.
		pe.Branches, pe.MAE = branchEstimates(o.Model, o.Probs, oracle, tickDiv)
	}
	return pe
}

// resolvedBranchCount counts the branch blocks the model pinned from
// static analysis (each contributes its full out-edge set to Pinned).
func resolvedBranchCount(m *tomography.Model) int {
	blocks := make(map[int]bool)
	for e := range m.Pinned {
		blocks[int(e[0])] = true
	}
	return len(blocks)
}

// branchEstimates assembles the per-edge report for one estimated
// procedure: estimate vs oracle per branch edge, the identifiability
// diagnostic, and the mean absolute error.
func branchEstimates(model *tomography.Model, est, oracle markov.EdgeProbs, tickDiv int) ([]BranchEstimate, float64) {
	ambiguity := model.BranchAmbiguity(ambiguityWindow(tickDiv))
	var branches []BranchEstimate
	mae := 0.0
	for _, e := range model.BranchEdgeList() {
		be := BranchEstimate{
			FromBlock: int(e[0]), ToBlock: int(e[1]),
			Prob: est[e], Oracle: oracle[e],
			Ambiguity: ambiguity[ir.BlockID(e[0])],
		}
		branches = append(branches, be)
		d := be.Prob - be.Oracle
		if d < 0 {
			d = -d
		}
		mae += d
	}
	if len(branches) > 0 {
		mae /= float64(len(branches))
	}
	return branches, mae
}

// Run executes the full Code Tomography pipeline on MiniC source text.
//
// It uses up to GOMAXPROCS cores: the original build's measurement run
// overlaps profiling and estimation, and procedures are estimated in
// parallel. Every stage reads only its own inputs and writes only its own
// slot, so the result is the same under any GOMAXPROCS.
func Run(source string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// The original build's run depends on nothing estimated: start it now,
	// and join it on every path.
	baseline := cfg.mote().Baseline(source)
	defer baseline()

	// 1–2. Profile run with timestamp instrumentation.
	prof, profM, err := cfg.mote().Execute(source, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, err
	}
	ivs, err := trace.Extract(profM.Trace())
	if err != nil {
		return nil, err
	}

	// 3. Gate and estimate every procedure; a model is built only for
	// procedures that pass the sample gate, and any model or estimator
	// failure fails the run.
	procs, probs := cfg.settings().Batch(prof, trace.ExclusiveByProc(ivs))
	res := &Result{}
	branchStats := profM.BranchStats()
	for _, o := range procs {
		if o.Err != nil {
			return nil, fmt.Errorf("codetomo: %w", o.Err)
		}
		oracle := profile.OracleProbs(prof.Meta.ProcByName[o.Proc.Name], o.Proc, branchStats)
		res.Estimates = append(res.Estimates, procEstimate(o, 0, oracle, cfg.TickDiv))
	}

	// 4–5. Optimize placement, rebuild uninstrumented, verify, report.
	res.Before, res.After, res.Output, err = cfg.measure(source, baseline, prof.CFG, probs)
	if err != nil {
		return nil, err
	}
	return res, nil
}
