package main

import (
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"time"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// pipelineParams sizes the pipeline_apps workload.
type pipelineParams struct {
	suite []apps.App
	iters int // handler invocations per app
}

// defaultPipelineParams is the workload as defined: every app of the
// placement corpus plus the call-heavy inlining kernel, at 3000 handler
// invocations each.
func defaultPipelineParams() pipelineParams {
	return pipelineParams{suite: append(apps.All(), apps.CallChain), iters: 3000}
}

// tickDiv is the motes' timer prescaler in every workload.
const tickDiv = 8

// pipelineConfig is the full profile-guided configuration every workload
// runs: static branch resolution, all four PGO passes and a 5-cycle flash
// page-cross penalty. Every field Run would default is set explicitly, so
// the traced replica reads the same values Run does.
func pipelineConfig(workloadName string, seed int64) codetomo.Config {
	return codetomo.Config{
		Workload:         workloadName,
		Seed:             seed,
		TickDiv:          tickDiv,
		Predictor:        mote.StaticNotTaken{},
		Estimator:        tomography.EM{Config: emConfig()},
		MinSamples:       50,
		MaxCycles:        2_000_000_000,
		MaxVisits:        12,
		MinCoverage:      0.85,
		StaticResolve:    true,
		PGOInline:        true,
		PGOSuperblock:    true,
		PGOHotCold:       true,
		PGOPagePack:      true,
		PageCrossPenalty: 5,
	}
}

func emConfig() tomography.EMConfig {
	return tomography.EMConfig{KernelHalfWidth: tickDiv}
}

// appInput is one app's generated input: its source and its seeded config.
type appInput struct {
	name string
	src  string
	cfg  codetomo.Config
}

// pipelineSetup generates every app's input from the seed and compiles
// each once, instrumented, so a source that does not build fails here.
func pipelineSetup(seed int64, p pipelineParams) ([]appInput, uint64, error) {
	h := fnv.New64a()
	var in []appInput
	for i, a := range p.suite {
		src, err := a.Source(p.iters)
		if err != nil {
			return nil, 0, err
		}
		if _, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps}); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", a.Name, err)
		}
		appSeed := seed*10007 + int64(i) + 1
		in = append(in, appInput{name: a.Name, src: src, cfg: pipelineConfig(a.Workload, appSeed)})
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", a.Name, src, appSeed)
	}
	return in, h.Sum64(), nil
}

// runPipeline runs pipeline_apps: codetomo.Run on every app, repeated in
// app order until the time is up; one operation is one Run.
func runPipeline(o options, p pipelineParams) (*report, error) {
	r := newReport(o)
	var inputs []appInput
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		in, digest, err := pipelineSetup(o.seed, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs, r.digest = in, digest
	}
	if o.trace {
		return r, tracedPipeline(o, r, inputs)
	}

	walls := make([][]float64, len(inputs))
	first := make([]*codetomo.Result, len(inputs))
	var passWalls []float64
	var allocated uint64
	runs := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		passStart := time.Now()
		for i, in := range inputs {
			b0, _ := heapAllocs()
			t0 := time.Now()
			res, err := codetomo.Run(in.src, in.cfg)
			d := time.Since(t0)
			b1, _ := heapAllocs()
			allocated += b1 - b0
			r.attempted++
			if err != nil {
				r.fail(1, "%s: Run: %v", in.name, err)
				continue
			}
			runs++
			walls[i] = append(walls[i], ms(d))
			if first[i] == nil {
				first[i] = res
			} else if !reflect.DeepEqual(first[i], res) {
				r.fail(1, "%s: Run result differs between passes", in.name)
			}
		}
		passWalls = append(passWalls, time.Since(passStart).Seconds())
	}

	var medians, speedups []float64
	trusted, maeSum := 0, 0.0
	for i, in := range inputs {
		if first[i] == nil {
			continue
		}
		medians = append(medians, median(walls[i]))
		speedups = append(speedups, first[i].Speedup())
		appTrusted := 0
		for _, e := range first[i].Estimates {
			if !e.Fallback {
				appTrusted++
				maeSum += e.MAE
			}
		}
		trusted += appTrusted
		r.note("%-12s run_ms p50 %9.3f (n=%d)  speedup %.4f  trusted %d/%d",
			in.name, median(walls[i]), len(walls[i]), first[i].Speedup(), appTrusted, len(first[i].Estimates))
	}
	if runs == 0 {
		return nil, fmt.Errorf("every Run failed: %v", r.failures)
	}
	mae := maeSum / float64(max(trusted, 1))
	r.note("run_ms_geomean is the geomean over %d apps of each app's median Run wall", len(medians))
	r.note("mae_mean %.5f over %d trusted procedures", mae, trusted)
	r.set("run_ms_geomean", geomean(medians))
	r.note("ops_per_s is %d Runs over the median pass wall of %.3f s (n=%d passes)", len(inputs), median(passWalls), len(passWalls))
	r.set("ops_per_s", float64(len(inputs))/median(passWalls))
	r.set("speedup_geomean", geomean(speedups))
	r.set("accuracy_mean", 1-mae)
	r.set("trusted_procs", float64(trusted))
	r.set("alloc_kb_per_op", float64(allocated)/1024/float64(r.attempted))
	r.set("setup_s", median(setups))
	return r, nil
}

// tracedPipeline alternates an untraced pass (codetomo.Run on every app)
// with a traced pass (the replica below on every app) until the time is
// up. Each replica must reproduce Run's result exactly; the per-layer
// metrics come from the traced passes and the overhead is the difference
// between the two kinds of pass.
func tracedPipeline(o options, r *report, inputs []appInput) error {
	loc, err := lineCounts(o.root)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin(-1, "", "workload.pipeline_apps")
	var passes []passValues
	var plain, traced []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		t0 := time.Now()
		want := make([]*codetomo.Result, len(inputs))
		for i, in := range inputs {
			r.attempted++
			res, err := codetomo.Run(in.src, in.cfg)
			if err != nil {
				r.fail(1, "%s: Run: %v", in.name, err)
				continue
			}
			want[i] = res
		}
		plain = append(plain, ms(time.Since(t0)))

		t0 = time.Now()
		pv := maps.Clone(loc)
		passSpan := tr.begin(root, "", "pass")
		for i, in := range inputs {
			r.attempted++
			op := tr.begin(passSpan, "", "op.Run."+in.name)
			got, err := replicaRun(tr, op, in.src, in.cfg, pv)
			tr.end(op)
			if err != nil {
				r.fail(1, "%s: replica: %v", in.name, err)
				continue
			}
			if want[i] != nil {
				if err := compareReplica(want[i], got); err != nil {
					return fmt.Errorf("%s: traced replica disagrees with codetomo.Run: %w", in.name, err)
				}
			}
		}
		tr.end(passSpan)
		traced = append(traced, ms(time.Since(t0)))
		stageMetrics(tr, passSpan, pv)
		passes = append(passes, pv)
	}
	tr.end(root)
	return tr.finish(o, r, passes, plain, traced, fmt.Sprintf("pass over %d apps", len(inputs)))
}

// stageMetrics derives one traced pass's timing metrics from its spans;
// the replica adds the counts as it goes.
func stageMetrics(tr *tracer, pass int, pv passValues) {
	sum := func(names ...string) float64 {
		var total time.Duration
		for _, n := range names {
			w, _ := tr.stageSum(pass, n)
			total += w
		}
		return ms(total)
	}
	pv["compile.build_ms"] = sum("compile.Build")
	pv["mote.run_ms"] = sum("mote.Run")
	if pv["mote.run_ms"] > 0 {
		pv["mote.sim_minstr_per_s"] = pv["mote.instructions"] / pv["mote.run_ms"] / 1000
	}
	pv["trace.extract_ms"] = sum("trace.Extract", "trace.DurationsCycles")
	pv["tomography.model_ms"] = sum("tomography.NewModelOpts")
	pv["tomography.coverage_ms"] = sum("tomography.Coverage")
	pv["tomography.estimate_ms"] = sum("tomography.EstimateEM", "tomography.EnvelopeCheck")
	pv["layout.plan_ms"] = sum("layout.PlanAll")
	for layer, b := range tr.layerBytes(pass) {
		pv[layer+".alloc_kb"] = float64(b) / 1024
	}
}

// procOutcome is the replica's view of one branchy procedure: the trust
// decision and, when trusted, the estimate in model.BranchEdgeList order.
type procOutcome struct {
	proc              string
	samples           int
	resolved          int
	fallback          bool
	envelopeViolation bool
	probs             []float64
}

// replicaResult is what the replica reproduces of codetomo.Result.
type replicaResult struct {
	procs         []procOutcome
	before, after mote.Stats
	output        []uint16
}

// replicaRun repeats the stages of codetomo.Run in the same order, each
// wrapped in a span: the instrumented build and profiling run, trace
// extraction, per-procedure model construction, coverage gate, EM and
// envelope check, placement, and the two measurement builds and runs.
// Work counts are added to pv.
func replicaRun(tr *tracer, parent int, src string, c codetomo.Config, pv passValues) (*replicaResult, error) {
	enum := markov.EnumerateOptions{MaxVisits: c.MaxVisits, MaxPaths: 30000}
	prof, profM, err := execute(tr, parent, src, c, compile.Options{Instrument: compile.ModeTimestamps}, pv)
	if err != nil {
		return nil, err
	}
	sp := tr.begin(parent, "trace", "trace.Extract")
	ivs, err := trace.Extract(profM.Trace())
	if err != nil {
		return nil, err
	}
	byProc := trace.ExclusiveByProc(ivs)
	tr.end(sp)
	pv["trace.intervals"] += float64(len(ivs))

	res := &replicaResult{}
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range prof.CFG.Procs {
		pm := prof.Meta.ProcByName[p.Name]
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		po := procOutcome{proc: p.Name, samples: len(byProc[pm.Index]), fallback: true}
		if po.samples >= c.MinSamples {
			sp = tr.begin(parent, "tomography", "tomography.NewModelOpts")
			m, err := tomography.NewModelOpts(prof, p.Name, c.Predictor, enum,
				tomography.ModelOptions{StaticResolve: c.StaticResolve})
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("model %s: %w", p.Name, err)
			}
			pv["tomography.paths"] += float64(len(m.Paths))
			if m.Truncated {
				pv["tomography.truncated_procs"]++
			}
			po.resolved = resolvedBlocks(m)

			sp = tr.begin(parent, "trace", "trace.DurationsCycles")
			samples := trace.DurationsCycles(byProc[pm.Index], c.TickDiv)
			tr.end(sp)

			sp = tr.begin(parent, "tomography", "tomography.Coverage")
			covered := m.Coverage(samples, float64(c.TickDiv)) >= c.MinCoverage
			tr.end(sp)
			if covered {
				sp = tr.begin(parent, "tomography", "tomography.EstimateEM")
				est, st, err := tomography.EstimateEM(m, samples, emConfig())
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("estimate %s: %w", p.Name, err)
				}
				pv["tomography.em_iterations"] += float64(st.Iterations)

				sp = tr.begin(parent, "tomography", "tomography.EnvelopeCheck")
				ok := m.EnvelopeCheck(est, float64(c.TickDiv))
				tr.end(sp)
				if !ok {
					po.envelopeViolation = true
				} else {
					po.fallback = false
					for _, e := range m.BranchEdgeList() {
						po.probs = append(po.probs, est[e])
					}
					probs[p.Name] = est
				}
			}
		}
		res.procs = append(res.procs, po)
	}

	sp = tr.begin(parent, "layout", "layout.PlanAll")
	plan := layout.PlanAll(prof.CFG, probs)
	var pgo *compile.PGOOptions
	if c.PGOInline || c.PGOSuperblock || c.PGOHotCold || c.PGOPagePack {
		pgo = pgoOptions(prof, probs, c)
	}
	tr.end(sp)

	_, beforeM, err := execute(tr, parent, src, c, compile.Options{}, pv)
	if err != nil {
		return nil, err
	}
	_, afterM, err := execute(tr, parent, src, c,
		compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints, PGO: pgo}, pv)
	if err != nil {
		return nil, err
	}
	res.before, res.after = beforeM.Stats(), afterM.Stats()
	res.output = afterM.DebugOutput()
	if !reflect.DeepEqual(beforeM.DebugOutput(), res.output) {
		return nil, codetomo.ErrOutputChanged
	}
	return res, nil
}

// execute builds src with the config's cost model and runs it to
// completion on a fresh mote fed by the config's seeded workload, as every
// codetomo pipeline run does.
func execute(tr *tracer, parent int, src string, c codetomo.Config, opts compile.Options, pv passValues) (*compile.Output, *mote.Machine, error) {
	opts.FuseCompares = c.FuseCompares
	opts.RotateLoops = c.RotateLoops
	if c.PageCrossPenalty > 0 && opts.Cost == nil {
		cost := isa.DefaultCostModel()
		cost.PageCrossPenalty = uint32(c.PageCrossPenalty)
		opts.Cost = cost
	}
	sp := tr.begin(parent, "compile", "compile.Build")
	out, err := compile.Build(src, opts)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	pv["compile.builds"]++
	pv["compile.code_words"] += float64(len(out.Code))

	sensor, ok := workload.Named(c.Workload, stats.NewRNG(c.Seed))
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", c.Workload)
	}
	mc := mote.DefaultConfig()
	mc.TickDiv = c.TickDiv
	mc.Predictor = c.Predictor
	mc.Sensor = sensor
	mc.Entropy = workload.NewEntropy(stats.NewRNG(c.Seed + 7919))
	if opts.Cost != nil {
		mc.Cost = opts.Cost
	}
	sp = tr.begin(parent, "mote", "mote.Run")
	m := mote.New(out.Code, mc)
	err = m.Run(c.MaxCycles)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	st := m.Stats()
	pv["mote.instructions"] += float64(st.Instructions)
	pv["mote.cycles"] += float64(st.Cycles)
	return out, m, nil
}

// pgoOptions turns the trusted estimates into profile weights for the
// PGO passes; branchless procedures carry placeholder probabilities, not
// profile data, and get no weights.
func pgoOptions(prof *compile.Output, probs map[string]markov.EdgeProbs, c codetomo.Config) *compile.PGOOptions {
	weights := make(map[string]compile.ProcWeights, len(probs))
	for _, p := range prof.CFG.Procs {
		if ep, ok := probs[p.Name]; ok && len(p.BranchBlocks()) > 0 {
			weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, ep))
		}
	}
	return &compile.PGOOptions{
		Weights:    weights,
		Inline:     c.PGOInline,
		Superblock: c.PGOSuperblock,
		HotCold:    c.PGOHotCold,
		PagePack:   c.PGOPagePack,
	}
}

// resolvedBlocks counts the branch blocks static analysis pinned.
func resolvedBlocks(m *tomography.Model) int {
	blocks := make(map[int]bool)
	for e := range m.Pinned {
		blocks[int(e[0])] = true
	}
	return len(blocks)
}

// compareReplica checks the replica against codetomo.Run: cycles before
// and after, debug output, and every procedure's sample count, trust
// decision and probabilities, bit for bit.
func compareReplica(want *codetomo.Result, got *replicaResult) error {
	if want.Before.Cycles != got.before.Cycles || want.After.Cycles != got.after.Cycles {
		return fmt.Errorf("cycles %d/%d, replica %d/%d", want.Before.Cycles, want.After.Cycles, got.before.Cycles, got.after.Cycles)
	}
	if !reflect.DeepEqual(want.Output, got.output) {
		return fmt.Errorf("debug output differs")
	}
	if len(want.Estimates) != len(got.procs) {
		return fmt.Errorf("%d estimated procedures, replica %d", len(want.Estimates), len(got.procs))
	}
	for i, e := range want.Estimates {
		g := got.procs[i]
		if e.Proc != g.proc || e.SampleCount != g.samples || e.ResolvedBranches != g.resolved ||
			e.Fallback != g.fallback || e.EnvelopeViolation != g.envelopeViolation {
			return fmt.Errorf("procedure %s: Run %+v, replica %+v", e.Proc, e, g)
		}
		if len(e.Branches) != len(g.probs) {
			return fmt.Errorf("procedure %s: %d branch edges, replica %d", e.Proc, len(e.Branches), len(g.probs))
		}
		for j, b := range e.Branches {
			if b.Prob != g.probs[j] {
				return fmt.Errorf("procedure %s edge %d->%d: %v, replica %v", e.Proc, b.FromBlock, b.ToBlock, b.Prob, g.probs[j])
			}
		}
	}
	return nil
}
