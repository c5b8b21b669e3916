package bench

import (
	"fmt"
	"strings"
	"time"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
	"codetomo/internal/report"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// Experiment is a runnable table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*report.Table, error)
}

// Experiments lists every table and figure of the evaluation, in paper
// order (see DESIGN.md's per-experiment index).
func Experiments() []Experiment {
	return []Experiment{
		{"t1", "Table 1: benchmark characteristics", TableT1},
		{"f2", "Figure 2: branch-probability error CDF by estimator", FigF2},
		{"f3", "Figure 3: estimation error vs. number of samples", FigF3},
		{"f4", "Figure 4: branch misprediction rate by layout strategy", FigF4},
		{"f5", "Figure 5: execution cycles by layout strategy (normalized)", FigF5},
		{"t2", "Table 2: profiling overhead by strategy", TableT2},
		{"f6", "Figure 6: estimation error vs. timer resolution", FigF6},
		{"f7", "Figure 7: estimation error vs. input regime", FigF7},
		{"f8", "Figure 8: estimation accuracy vs the PC-sampling baseline", FigF8},
		{"t3", "Table 3: estimator ablation (accuracy and cost)", TableT3},
		{"a1", "Ablation 1: path-enumeration unroll bound", AblationUnroll},
		{"a2", "Ablation 2: static predictor policy", AblationPredictor},
		{"a3", "Ablation 3: compare fusion and loop rotation", AblationOptimizations},
		{"a4", "Ablation 4: dynamic prediction vs code placement", AblationDynamicPredictor},
		{"fl1", "Fleet 1: estimation error vs packet loss", FleetLossSweep},
		{"fl2", "Fleet 2: estimation error vs fleet size", FleetSizeSweep},
		{"ft1", "Fault 1: naive vs hardened uplink under faults", FaultRecoverySweep},
		{"ft2", "Fault 2: ARQ recovery cost vs corruption rate", ARQOverheadSweep},
		{"sa1", "Static 1: value-range pinning and dead-branch elimination", StaticAnalysisBench},
		{"in1", "Intermittent 1: completion and estimation under harvested power", IntermittentSweep},
		{"pg1", "PGO 1: cycles by profile-guided pass vs placement-only", PGOSweep},
	}
}

// TableT1 reports the static characteristics of every benchmark.
func TableT1(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "T1: benchmark characteristics",
		Header: []string{"app", "loc", "procs", "blocks", "branches", "code B", "globals W", "handler", "paths"},
		Note:   "paths = handler execution paths within the enumeration bound",
	}
	for _, a := range apps.All() {
		src, err := a.Source(c.Samples)
		if err != nil {
			return nil, err
		}
		out, err := compile.Build(src, compile.Options{})
		if err != nil {
			return nil, err
		}
		loc := 0
		for _, line := range strings.Split(src, "\n") {
			if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
				loc++
			}
		}
		blocks, branches := 0, 0
		for _, p := range out.CFG.Procs {
			blocks += len(p.Blocks)
			branches += len(p.BranchBlocks())
		}
		paths, _ := markov.Enumerate(out.CFG.Proc(a.Handler), markov.EnumerateOptions{MaxVisits: c.MaxVisits, MaxPaths: pipeline.MaxPaths})
		t.AddRow(a.Name, report.I(loc), report.I(len(out.CFG.Procs)), report.I(blocks),
			report.I(branches), report.I(out.Meta.CodeBytes), report.I(out.Meta.GlobalWords),
			a.Handler, report.I(len(paths)))
	}
	return t, nil
}

// FigF2 reports the CDF of per-branch-edge estimation error for each
// estimator, aggregated over the whole suite.
func FigF2(c Config) (*report.Table, error) {
	grid := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50}
	ests := []tomography.Estimator{
		c.Settings().Estimator,
		tomography.Moments{},
		tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: float64(c.TickDiv)}},
	}
	t := &report.Table{
		Title:  "F2: per-edge |error| CDF by estimator (all apps)",
		Header: []string{"estimator", "edges"},
		Note:   fmt.Sprintf("%d samples per app, tick=%d cycles", c.Samples, c.TickDiv),
	}
	for _, g := range grid {
		t.Header = append(t.Header, fmt.Sprintf("<=%.2f", g))
	}
	for _, est := range ests {
		var errs []float64
		for i, a := range apps.All() {
			res, err := c.estimate(a, est, int64(i), c.Samples)
			if err != nil {
				// Estimator not applicable to this app (e.g. the
				// histogram method on path-explosive kernels); skip
				// rather than failing the whole figure. The edge-count
				// column reveals reduced coverage.
				continue
			}
			errs = append(errs, res.Errors...)
		}
		if len(errs) == 0 {
			t.AddRow(est.Name(), "0")
			continue
		}
		row := []string{est.Name(), report.I(len(errs))}
		for _, g := range grid {
			n := 0
			for _, e := range errs {
				if e <= g {
					n++
				}
			}
			row = append(row, report.Pct(float64(n)/float64(len(errs))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FigF3 reports MAE vs. sample count (estimator convergence).
func FigF3(c Config) (*report.Table, error) {
	counts := []int{30, 100, 300, 1000, 3000, 10000}
	names := []string{"sense", "eventdetect", "fir"}
	t := &report.Table{
		Title:  "F3: EM estimation MAE vs. number of timing samples",
		Header: append([]string{"samples"}, names...),
		Note:   "expected shape: error falls roughly as 1/sqrt(samples)",
	}
	est := c.Settings().Estimator
	for _, n := range counts {
		row := []string{report.I(n)}
		for j, name := range names {
			a, _ := apps.ByName(name)
			res, err := c.estimate(a, est, int64(100+j), n)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(res.MAE, 4))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Strategy names for the placement experiments, in reporting order.
var strategies = []string{"original", "random", "static", "ctomo", "oracle"}

// placementResult carries one (app, strategy) measured run.
type placementResult struct {
	mispredicts, condBranches, cycles uint64
}

// runPlacement executes the full pipeline for one app: profile under the
// default layout, derive layouts per strategy, rebuild uninstrumented
// binaries, and re-run each under the identical workload.
func (c Config) runPlacement(a apps.App, seedOffset int64) (map[string]placementResult, error) {
	// 1–2. Profiling run (timestamps, natural layout), and per-procedure
	// probabilities under each information source.
	prof, ctProbs, err := c.profile(a, seedOffset)
	if err != nil {
		return nil, err
	}
	oracleProbs := make(map[string]markov.EdgeProbs)
	staticProbs := make(map[string]markov.EdgeProbs)
	for _, p := range prof.Out.CFG.Procs {
		oracleProbs[p.Name] = profile.OracleProbs(prof.Out.Meta.ProcByName[p.Name], p, prof.Machine.BranchStats())
		staticProbs[p.Name] = profile.BallLarusProbs(p)
	}

	plansBy := map[string]layout.Plan{
		"original": {},
		"random":   {Layouts: layout.RandomAll(prof.Out.CFG, c.Seed+seedOffset)},
		"static":   layout.PlanAll(prof.Out.CFG, staticProbs),
		"ctomo":    layout.PlanAll(prof.Out.CFG, ctProbs),
		"oracle":   layout.PlanAll(prof.Out.CFG, oracleProbs),
	}

	// 3. Measurement runs: plain binaries, identical workload.
	out := make(map[string]placementResult, len(plansBy))
	for name, plan := range plansBy {
		r, err := c.execute(a, compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints}, seedOffset)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", a.Name, name, err)
		}
		s := r.Machine.Stats()
		out[name] = placementResult{
			mispredicts:  s.Mispredicts,
			condBranches: s.CondBranches,
			cycles:       s.Cycles,
		}
	}
	return out, nil
}

// profile makes an app's timestamp profiling run and pushes it through the
// pipeline's batch stages, returning the run and the placement input: the
// trusted estimates plus uniform placeholders for branchless procedures.
// Procedures the trust policy rejects — too few observations (e.g. main),
// loops beyond the unrolling bound, a model or estimator that fails — keep
// their original layout, exactly what a deployment would do.
func (c Config) profile(a apps.App, seedOffset int64) (*Run, map[string]markov.EdgeProbs, error) {
	prof, err := c.execute(a, compile.Options{Instrument: compile.ModeTimestamps}, seedOffset)
	if err != nil {
		return nil, nil, err
	}
	ivs, err := trace.Extract(prof.Machine.Trace())
	if err != nil {
		return nil, nil, err
	}
	_, probs := c.Settings().Batch(prof.Out, trace.ExclusiveByProc(ivs))
	return prof, probs, nil
}

// FigF4 reports the misprediction rate per app and layout strategy.
func FigF4(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "F4: branch misprediction rate by layout strategy",
		Header: append([]string{"app"}, strategies...),
		Note:   "rate = mispredicted / executed conditional branches; lower is better",
	}
	for i, a := range apps.All() {
		res, err := c.runPlacement(a, int64(200+i))
		if err != nil {
			return nil, err
		}
		row := []string{a.Name}
		for _, s := range strategies {
			r := res[s]
			rate := 0.0
			if r.condBranches > 0 {
				rate = float64(r.mispredicts) / float64(r.condBranches)
			}
			row = append(row, report.Pct(rate))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FigF5 reports execution cycles normalized to the original layout.
func FigF5(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "F5: execution cycles by layout strategy, normalized to original",
		Header: append([]string{"app"}, strategies...),
		Note:   "lower is better; 1.0000 = original layout",
	}
	for i, a := range apps.All() {
		res, err := c.runPlacement(a, int64(300+i))
		if err != nil {
			return nil, err
		}
		base := float64(res["original"].cycles)
		row := []string{a.Name}
		for _, s := range strategies {
			row = append(row, report.F(float64(res[s].cycles)/base, 4))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// TableT2 reports the profiling overhead of Code Tomography's timestamps
// versus full edge-counter instrumentation.
func TableT2(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "T2: profiling overhead by strategy",
		Header: []string{"app", "strategy", "code +B", "RAM B", "cycles +%", "energy +uJ"},
		Note:   "relative to the uninstrumented build on the identical workload",
	}
	energy := mote.DefaultEnergyModel()
	for i, a := range apps.All() {
		base, err := c.execute(a, compile.Options{}, int64(400+i))
		if err != nil {
			return nil, err
		}
		for _, mode := range []compile.Mode{compile.ModeTimestamps, compile.ModeEdgeCounters} {
			inst, err := c.execute(a, compile.Options{Instrument: mode}, int64(400+i))
			if err != nil {
				return nil, err
			}
			o := profile.MeasureOverhead(mode.String(), base.Out.Meta, inst.Out.Meta,
				base.Machine.Stats(), inst.Machine.Stats(), energy)
			t.AddRow(a.Name, o.Strategy, report.I(o.CodeBytes), report.I(o.RAMBytes),
				report.F(o.ExtraCyclesPct, 2), report.F(o.ExtraEnergyUJ, 2))
		}
	}
	return t, nil
}

// FigF6 reports estimation error as the hardware timer gets coarser.
func FigF6(c Config) (*report.Table, error) {
	ticks := []int{1, 2, 4, 8, 16, 32, 64}
	names := []string{"sense", "fir"}
	t := &report.Table{
		Title:  "F6: EM estimation MAE vs. timer resolution (cycles per tick)",
		Header: append([]string{"tick"}, names...),
		Note:   "error grows once the tick exceeds inter-path time differences",
	}
	for _, tick := range ticks {
		cc := c
		cc.TickDiv = tick
		row := []string{report.I(tick)}
		for j, name := range names {
			a, _ := apps.ByName(name)
			res, err := cc.estimate(a, cc.Settings().Estimator, int64(500+j), c.Samples)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(res.MAE, 4))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FigF7 reports estimation error across input regimes (the
// nondeterministic-input robustness sweep).
func FigF7(c Config) (*report.Table, error) {
	a, _ := apps.ByName("eventdetect")
	t := &report.Table{
		Title:  "F7: EM estimation MAE by input regime (eventdetect)",
		Header: []string{"regime", "mae", "maxerr"},
	}
	regimes := []string{"gaussian", "uniform", "bursty", "regime", "diurnal"}
	for j, regime := range regimes {
		r, err := c.executeWorkload(a, compile.Options{Instrument: compile.ModeTimestamps}, regime, int64(600+j), c.Samples)
		if err != nil {
			return nil, err
		}
		res, err := c.estimateRun(r, c.Settings().Estimator)
		if err != nil {
			return nil, err
		}
		t.AddRow(regime, report.F(res.MAE, 4), report.F(res.MaxErr, 4))
	}
	return t, nil
}

// FigF8 compares Code Tomography's accuracy against the classical cheap
// alternative on motes — timer-interrupt PC sampling — and the free one,
// static heuristics. Sampling observes block residency, not edges, so its
// branch probabilities are smeared by shared successors; this figure
// quantifies that gap.
func FigF8(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "F8: branch-probability MAE — tomography vs PC sampling vs static",
		Header: []string{"app", "ctomo", "sampling", "ballarus"},
		Note:   "sampling period 199 cycles; all scored against the same run's oracle",
	}
	for i, a := range apps.All() {
		// Tomography accuracy from a timestamps run.
		ct, err := c.estimate(a, c.Settings().Estimator, int64(1200+i), c.Samples)
		ctCell := "n/a"
		if err == nil {
			ctCell = report.F(ct.MAE, 4)
		}

		// Sampling run: plain binary stepped with a host-side sampler.
		src, err := a.Source(c.Samples)
		if err != nil {
			return nil, err
		}
		out, err := compile.Build(src, compile.Options{})
		if err != nil {
			return nil, err
		}
		m, err := c.mote(a.Workload, int64(1200+i)).New(out.Code)
		if err != nil {
			return nil, err
		}
		samples, err := profile.SampleRun(m, out.Meta, 199, c.MaxCycles)
		if err != nil {
			return nil, err
		}
		proc := out.CFG.Proc(a.Handler)
		pm := out.Meta.ProcByName[a.Handler]
		oracle := profile.OracleProbs(pm, proc, m.BranchStats())
		sampProbs := profile.SamplingProbs(proc, samples[a.Handler])
		blProbs := profile.BallLarusProbs(proc)

		mae := func(est markov.EdgeProbs) string {
			var sum float64
			var n int
			for _, bb := range proc.BranchBlocks() {
				for _, s := range proc.Block(bb).Succs() {
					k := [2]ir.BlockID{bb, s}
					d := est[k] - oracle[k]
					if d < 0 {
						d = -d
					}
					sum += d
					n++
				}
			}
			if n == 0 {
				return "n/a"
			}
			return report.F(sum/float64(n), 4)
		}
		t.AddRow(a.Name, ctCell, mae(sampProbs), mae(blProbs))
	}
	return t, nil
}

// TableT3 is the estimator ablation: accuracy and host-side cost.
func TableT3(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:    "T3: estimator ablation",
		Header:   []string{"app", "em mae", "moments mae", "hist mae", "em ms", "moments ms", "hist ms"},
		Note:     "same samples per app; MAE vs. oracle; host estimation time",
		HostTime: []int{4, 5, 6},
	}
	ests := []tomography.Estimator{
		c.Settings().Estimator,
		tomography.Moments{},
		tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: float64(c.TickDiv)}},
	}
	for i, a := range apps.All() {
		r, err := c.execute(a, compile.Options{Instrument: compile.ModeTimestamps}, int64(700+i))
		if err != nil {
			return nil, err
		}
		maes := make([]string, len(ests))
		times := make([]string, len(ests))
		for k, est := range ests {
			start := time.Now()
			res, err := c.estimateRun(r, est)
			elapsed := time.Since(start)
			if err != nil {
				maes[k], times[k] = "n/a", "n/a"
				continue
			}
			maes[k] = report.F(res.MAE, 4)
			times[k] = report.F(float64(elapsed.Microseconds())/1000, 1)
		}
		t.AddRow(a.Name, maes[0], maes[1], maes[2], times[0], times[1], times[2])
	}
	return t, nil
}

// AblationUnroll sweeps the path-enumeration visit bound.
func AblationUnroll(c Config) (*report.Table, error) {
	bounds := []int{2, 3, 4, 6, 10}
	names := []string{"crc", "aggregate"}
	t := &report.Table{
		Title:  "A1: EM MAE vs. loop-unroll bound (max visits per block)",
		Header: append([]string{"maxvisits"}, names...),
		Note:   "loop-heavy handlers need the bound to cover realized iteration counts",
	}
	for _, b := range bounds {
		cc := c
		cc.MaxVisits = b
		row := []string{report.I(b)}
		for j, name := range names {
			a, _ := apps.ByName(name)
			res, err := cc.estimate(a, cc.Settings().Estimator, int64(800+j), c.Samples)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, report.F(res.MAE, 4))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationPredictor compares placement gains under the two static
// predictor policies.
func AblationPredictor(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "A2: misprediction rate, original vs ctomo layout, by predictor",
		Header: []string{"app", "predictor", "original", "ctomo", "oracle"},
	}
	names := []string{"sense", "eventdetect", "quantize"}
	preds := []mote.Predictor{mote.StaticNotTaken{}, mote.BTFN{}}
	for i, name := range names {
		a, _ := apps.ByName(name)
		for _, p := range preds {
			cc := c
			cc.Predictor = p
			res, err := cc.runPlacement(a, int64(900+i))
			if err != nil {
				return nil, err
			}
			rate := func(s string) string {
				r := res[s]
				if r.condBranches == 0 {
					return "n/a"
				}
				return report.Pct(float64(r.mispredicts) / float64(r.condBranches))
			}
			t.AddRow(a.Name, p.Name(), rate("original"), rate("ctomo"), rate("oracle"))
		}
	}
	return t, nil
}

// AblationOptimizations measures the backend's optional passes — the
// compare-branch peephole and loop rotation — on cycles and mispredicts,
// normalized to the plain build (original layout, predict-not-taken).
func AblationOptimizations(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "A3: cycles (and mispredict rate) by backend optimization",
		Header: []string{"app", "plain cyc", "fuse cyc", "rotate cyc", "both cyc", "mp nt", "mp nt+opt", "mp btfn+opt"},
		Note: "cycles normalized to plain build, original layout. Rotation turns latches into " +
			"backward-taken branches: poison for predict-not-taken, food for BTFN",
	}
	variants := []compile.Options{
		{},
		{FuseCompares: true},
		{RotateLoops: true},
		{FuseCompares: true, RotateLoops: true},
	}
	for i, a := range apps.All() {
		var cycles []uint64
		var rates []float64
		for _, opts := range variants {
			r, err := c.execute(a, opts, int64(1000+i))
			if err != nil {
				return nil, err
			}
			s := r.Machine.Stats()
			cycles = append(cycles, s.Cycles)
			rate := 0.0
			if s.CondBranches > 0 {
				rate = float64(s.Mispredicts) / float64(s.CondBranches)
			}
			rates = append(rates, rate)
		}
		// The fully optimized build once more, under BTFN.
		cb := c
		cb.Predictor = mote.BTFN{}
		rb, err := cb.execute(a, compile.Options{FuseCompares: true, RotateLoops: true}, int64(1000+i))
		if err != nil {
			return nil, err
		}
		sb := rb.Machine.Stats()
		btfnRate := 0.0
		if sb.CondBranches > 0 {
			btfnRate = float64(sb.Mispredicts) / float64(sb.CondBranches)
		}
		base := float64(cycles[0])
		t.AddRow(a.Name,
			"1.0000",
			report.F(float64(cycles[1])/base, 4),
			report.F(float64(cycles[2])/base, 4),
			report.F(float64(cycles[3])/base, 4),
			report.Pct(rates[0]),
			report.Pct(rates[3]),
			report.Pct(btfnRate),
		)
	}
	return t, nil
}

// AblationDynamicPredictor contrasts what placement buys under static
// prediction against a hardware 2-bit bimodal predictor. Motes don't have
// the latter — the point of the experiment is to show that placement
// recovers, through the compiler, most of what the missing hardware would
// provide.
func AblationDynamicPredictor(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "A4: misprediction rate — static prediction + placement vs dynamic hardware",
		Header: []string{"app", "nt orig", "nt ctomo", "bimodal orig", "bimodal ctomo"},
		Note:   "bimodal = 64-entry 2-bit dynamic predictor (not available on motes); profiles taken under nt",
	}
	for i, a := range apps.All() {
		// Profile and plan under the static policy, as a mote would.
		prof, ctProbs, err := c.profile(a, int64(1100+i))
		if err != nil {
			return nil, err
		}
		plan := layout.PlanAll(prof.Out.CFG, ctProbs)

		rate := func(pred mote.Predictor, opts compile.Options) (string, error) {
			cc := c
			cc.Predictor = pred
			r, err := cc.execute(a, opts, int64(1100+i))
			if err != nil {
				return "", err
			}
			s := r.Machine.Stats()
			if s.CondBranches == 0 {
				return "n/a", nil
			}
			return report.Pct(float64(s.Mispredicts) / float64(s.CondBranches)), nil
		}
		ctOpts := compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints}
		row := []string{a.Name}
		for _, cfg := range []struct {
			fresh func() mote.Predictor
			opts  compile.Options
		}{
			{func() mote.Predictor { return mote.StaticNotTaken{} }, compile.Options{}},
			{func() mote.Predictor { return mote.StaticNotTaken{} }, ctOpts},
			{func() mote.Predictor { return mote.NewBimodal(6) }, compile.Options{}},
			{func() mote.Predictor { return mote.NewBimodal(6) }, ctOpts},
		} {
			cell, err := rate(cfg.fresh(), cfg.opts)
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}
