package bench

// Static-analysis experiment: how much estimator work the value-range
// pinning saves, and what dead-branch elimination buys at runtime. The
// benchmark programs read the sensor directly inside the handler, so the
// ADC rail (sense() <= 1023) makes a controllable fraction of the branches
// statically provable.

import (
	"fmt"
	"time"

	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/report"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// railCase is one synthetic program with a known number of rail-provable
// branches in its handler.
type railCase struct {
	name    string
	handler string // handler body: branches over v = sense()
}

var railCases = []railCase{
	// Control: both branches genuinely data-dependent. The arms carry
	// enough work to be separable at the default tick.
	{"rail-0of2", `
	if (v < 300) { r = r + v / 3; }
	if (v < 700) { r = r + v / 5 + v % 11 + 1; }`},
	// One of two branches provable: sense() never reaches 2000.
	{"rail-1of2", `
	if (v < 2000) { r = r + v / 3; } else { r = 99; }
	if (v < 500) { r = r + v / 5 + v % 11 + 1; }`},
	// Two of three provable: the rail bounds both comparisons.
	{"rail-2of3", `
	if (v < 2000) { r = r + v / 3; } else { r = 99; }
	if (v >= 0) { r = r + 1; } else { r = 77; }
	if (v < 500) { r = r + v / 5 + v % 11 + 1; }`},
}

func (rc railCase) source(samples int) string {
	return fmt.Sprintf(`
func handler() int {
	var v int;
	var r int;
	v = sense();
	r = 0;%s
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < %d; i = i + 1) {
		acc = acc + handler();
	}
	debug(acc);
}`, rc.handler, samples)
}

// railRun builds a rail program and executes it under a Gaussian sensor.
func (c Config) railRun(rc railCase, opts compile.Options, seedOffset int64) (*compile.Output, *mote.Machine, error) {
	mt := c.mote("", seedOffset)
	mt.Inputs = func() (mote.SampleSource, mote.SampleSource, error) {
		rng := stats.NewRNG(c.Seed + seedOffset)
		return workload.NewGaussian(rng, 400, 180), workload.NewEntropy(rng.Fork()), nil
	}
	out, m, err := mt.Execute(rc.source(c.Samples), opts)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", rc.name, err)
	}
	return out, m, nil
}

// maeOver scores an estimate against truth over an explicit edge list —
// used to compare the pinned and unpinned models on identical footing (the
// pinned model's own edge list omits the resolved branches).
func maeOver(edges [][2]ir.BlockID, est, truth markov.EdgeProbs) float64 {
	if len(edges) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range edges {
		d := est[e] - truth[e]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(edges))
}

// StaticAnalysisBench measures (a) estimator work and accuracy with and
// without static branch resolution and (b) the cycles and code bytes that
// dead-branch elimination recovers, per rail case.
func StaticAnalysisBench(c Config) (*report.Table, error) {
	t := &report.Table{
		Title: "SA1: value-range pinning and dead-branch elimination",
		Header: []string{"case", "branches", "pinned",
			"edges off", "edges on", "iters off", "iters on",
			"ms off", "ms on", "mae off", "mae on",
			"dbe cyc saved", "dbe code B"},
		Note: "off/on = EM without/with static resolution; MAE over the full " +
			"edge set vs the run's oracle; dbe columns compare plain vs " +
			"DeadBranchElim uninstrumented builds on the identical workload",
		HostTime: []int{7, 8},
	}
	emCfg := tomography.EMConfig{KernelHalfWidth: float64(c.TickDiv)}
	for i, rc := range railCases {
		seed := int64(1300 + i)

		// Profiling run (timestamps, no optimization: the dead arm stays in
		// the CFG so the unpinned model must treat it as a free parameter).
		out, machine, err := c.railRun(rc, compile.Options{Instrument: compile.ModeTimestamps}, seed)
		if err != nil {
			return nil, err
		}
		ivs, err := trace.Extract(machine.Trace())
		if err != nil {
			return nil, err
		}
		pm := out.Meta.ProcByName["handler"]
		samples := trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], c.TickDiv)
		if len(samples) == 0 {
			return nil, fmt.Errorf("bench: %s: no handler samples", rc.name)
		}

		settings := c.Settings()
		off, err := settings.Model(out, "handler")
		if err != nil {
			return nil, err
		}
		settings.StaticResolve = true
		on, err := settings.Model(out, "handler")
		if err != nil {
			return nil, err
		}

		run := func(m *tomography.Model) (markov.EdgeProbs, int, float64, error) {
			start := time.Now()
			est, st, err := tomography.EstimateEM(m, samples, emCfg)
			if err != nil {
				return nil, 0, 0, err
			}
			return est, st.Iterations, float64(time.Since(start).Microseconds()) / 1000, nil
		}
		estOff, itersOff, msOff, err := run(off)
		if err != nil {
			return nil, err
		}
		estOn, itersOn, msOn, err := run(on)
		if err != nil {
			return nil, err
		}

		// Score both on the unpinned model's complete edge list; the pinned
		// estimate carries its 1/0 edges so the comparison is fair.
		edges := off.BranchEdgeList()
		truth := profile.OracleProbs(pm, off.Proc, machine.BranchStats())

		// Dead-branch elimination: identical workload, plain binaries.
		_, basePlain, err := c.railRun(rc, compile.Options{}, seed)
		if err != nil {
			return nil, err
		}
		outDBE, withDBE, err := c.railRun(rc, compile.Options{DeadBranchElim: true}, seed)
		if err != nil {
			return nil, err
		}
		baseOut, err := compile.Build(rc.source(c.Samples), compile.Options{})
		if err != nil {
			return nil, err
		}
		cycSaved := int64(basePlain.Stats().Cycles) - int64(withDBE.Stats().Cycles)
		codeSaved := int64(baseOut.Meta.CodeBytes) - int64(outDBE.Meta.CodeBytes)

		t.AddRow(rc.name,
			report.I(len(off.Proc.BranchBlocks())),
			report.I(len(off.Unknowns)-len(on.Unknowns)),
			report.I(len(off.BranchEdgeList())), report.I(len(on.BranchEdgeList())),
			report.I(itersOff), report.I(itersOn),
			report.F(msOff, 2), report.F(msOn, 2),
			report.F(maeOver(edges, estOff, truth), 4),
			report.F(maeOver(edges, estOn, truth), 4),
			fmt.Sprintf("%d", cycSaved), fmt.Sprintf("%d", codeSaved))
	}
	return t, nil
}
