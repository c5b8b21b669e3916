// Package bench is the evaluation harness: one runner per table/figure of
// the reconstructed evaluation (see DESIGN.md's per-experiment index). Each
// runner compiles the benchmark suite, drives the mote simulator under the
// configured workloads, runs the estimators, and returns a report.Table
// whose rows are the figure's series.
package bench

import (
	"fmt"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// Config holds the experiment-wide knobs.
type Config struct {
	// Seed drives all workload randomness.
	Seed int64
	// Samples is the number of handler invocations per profiling run.
	Samples int
	// TickDiv is the timer prescaler of the profiled mote.
	TickDiv int
	// Predictor is the static branch prediction policy under study.
	Predictor mote.Predictor
	// MaxVisits bounds loop unrolling during path enumeration.
	MaxVisits int
	// MaxCycles bounds each simulated run.
	MaxCycles uint64
}

// DefaultConfig returns the configuration the committed EXPERIMENTS.md
// numbers were produced with.
func DefaultConfig() Config {
	return Config{
		Seed:      1234,
		Samples:   3000,
		TickDiv:   pipeline.DefaultTickDiv,
		Predictor: mote.StaticNotTaken{},
		MaxVisits: pipeline.DefaultMaxVisits,
		MaxCycles: pipeline.DefaultMaxCycles,
	}
}

// Run is one compiled-and-executed benchmark instance.
type Run struct {
	App     apps.App
	Out     *compile.Output
	Machine *mote.Machine
}

// Settings is the estimation configuration every runner shares: the
// pipeline's defaults at the config's timer resolution, predictor, and
// unroll bound.
func (c Config) Settings() pipeline.Settings {
	return pipeline.Settings{
		TickDiv:   c.TickDiv,
		Predictor: c.Predictor,
		MaxVisits: c.MaxVisits,
	}.WithDefaults()
}

// mote is the mote factory for one app run: every execution is fed a
// fresh copy of the regime's input streams seeded from c.Seed+seedOffset.
func (c Config) mote(regime string, seedOffset int64) pipeline.Mote {
	return pipeline.Mote{TickDiv: c.TickDiv, Predictor: c.Predictor, MaxCycles: c.MaxCycles,
		Inputs: pipeline.Workload(regime, c.Seed+seedOffset)}
}

// execute builds an app with the given options and runs it under its
// default workload for cfg.Samples handler invocations.
func (c Config) execute(app apps.App, opts compile.Options, seedOffset int64) (*Run, error) {
	return c.executeWorkload(app, opts, app.Workload, seedOffset, c.Samples)
}

// executeWorkload builds an app with opts (a build under a custom cost
// model, e.g. the PGO sweep's page-cross penalty, runs under the same
// model) and runs it under regime for samples handler invocations.
func (c Config) executeWorkload(app apps.App, opts compile.Options, regime string, seedOffset int64, samples int) (*Run, error) {
	src, err := app.Source(samples)
	if err != nil {
		return nil, err
	}
	out, m, err := c.mote(regime, seedOffset).Execute(src, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", app.Name, err)
	}
	return &Run{App: app, Out: out, Machine: m}, nil
}

// handlerSamples extracts the handler's exclusive durations in cycles from
// a ModeTimestamps run.
func (c Config) handlerSamples(r *Run) ([]float64, error) {
	ivs, err := trace.Extract(r.Machine.Trace())
	if err != nil {
		return nil, err
	}
	pm, ok := r.Out.Meta.ProcByName[r.App.Handler]
	if !ok {
		return nil, fmt.Errorf("bench: %s: handler %q missing", r.App.Name, r.App.Handler)
	}
	ticks := trace.ExclusiveByProc(ivs)[pm.Index]
	if len(ticks) == 0 {
		return nil, fmt.Errorf("bench: %s: no handler samples", r.App.Name)
	}
	return trace.DurationsCycles(ticks, c.TickDiv), nil
}

// estimateResult holds one estimation outcome scored against ground truth.
type estimateResult struct {
	Model  *tomography.Model
	Est    markov.EdgeProbs
	Truth  markov.EdgeProbs
	Errors []float64 // per-branch-edge absolute error
	MAE    float64
	MaxErr float64
}

// estimate profiles an app via timestamps and runs the given estimator,
// scoring against the run's ground-truth branch statistics.
func (c Config) estimate(app apps.App, est tomography.Estimator, seedOffset int64, samples int) (*estimateResult, error) {
	r, err := c.executeWorkload(app, compile.Options{Instrument: compile.ModeTimestamps}, app.Workload, seedOffset, samples)
	if err != nil {
		return nil, err
	}
	return c.estimateRun(r, est)
}

func (c Config) estimateRun(r *Run, est tomography.Estimator) (*estimateResult, error) {
	durations, err := c.handlerSamples(r)
	if err != nil {
		return nil, err
	}
	model, err := c.Settings().Model(r.Out, r.App.Handler)
	if err != nil {
		return nil, err
	}
	fit, err := est.Fit(model, tomography.CountSamples(durations), nil)
	if err != nil {
		return nil, err
	}
	pm := r.Out.Meta.ProcByName[r.App.Handler]
	truth := profile.OracleProbs(pm, model.Proc, r.Machine.BranchStats())
	return score(model, fit.Probs, truth)
}

func score(model *tomography.Model, est, truth markov.EdgeProbs) (*estimateResult, error) {
	ev, tv := model.ProbVector(est), model.ProbVector(truth)
	res := &estimateResult{Model: model, Est: est, Truth: truth}
	for i := range ev {
		d := ev[i] - tv[i]
		if d < 0 {
			d = -d
		}
		res.Errors = append(res.Errors, d)
		if d > res.MaxErr {
			res.MaxErr = d
		}
	}
	res.MAE, _ = stats.MAE(ev, tv) // equal lengths
	return res, nil
}
