package codetomo_test

// One testing.B benchmark per table and figure of the evaluation (see
// DESIGN.md's per-experiment index), so `go test -bench=.` regenerates the
// whole study. Each benchmark reports the experiment's headline number as
// a custom metric alongside the usual time/op.
//
// The committed EXPERIMENTS.md values come from `go run ./cmd/ctbench`
// (same runners, default config); the benchmarks here use a lighter sample
// budget so the full suite stays minutes, not hours.

import (
	"strconv"
	"strings"
	"testing"

	codetomo "codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/bench"
	"codetomo/internal/compile"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/report"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

func benchConfig() bench.Config {
	c := bench.DefaultConfig()
	c.Samples = 1000
	return c
}

// runExperiment drives one table/figure runner b.N times.
func runExperiment(b *testing.B, run func(bench.Config) (*report.Table, error)) *report.Table {
	b.Helper()
	cfg := benchConfig()
	var tab *report.Table
	for i := 0; i < b.N; i++ {
		t, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tab = t
	}
	return tab
}

func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("cell %q not numeric", s)
	}
	return v
}

func BenchmarkTableT1(b *testing.B) {
	tab := runExperiment(b, bench.TableT1)
	b.ReportMetric(float64(len(tab.Rows)), "apps")
}

func BenchmarkFigF2(b *testing.B) {
	tab := runExperiment(b, bench.FigF2)
	// Headline: fraction of EM edges within 0.05 of truth.
	b.ReportMetric(cellFloat(b, tab.Rows[0][4]), "em_pct_le_0.05")
}

func BenchmarkFigF3(b *testing.B) {
	tab := runExperiment(b, bench.FigF3)
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellFloat(b, last[1]), "sense_mae_at_10k")
}

func BenchmarkFigF4(b *testing.B) {
	tab := runExperiment(b, bench.FigF4)
	var orig, ct float64
	for _, row := range tab.Rows {
		orig += cellFloat(b, row[1])
		ct += cellFloat(b, row[4])
	}
	b.ReportMetric(orig/float64(len(tab.Rows)), "orig_mispred_pct")
	b.ReportMetric(ct/float64(len(tab.Rows)), "ctomo_mispred_pct")
}

func BenchmarkFigF5(b *testing.B) {
	tab := runExperiment(b, bench.FigF5)
	var ct float64
	for _, row := range tab.Rows {
		ct += cellFloat(b, row[4])
	}
	b.ReportMetric(ct/float64(len(tab.Rows)), "ctomo_cycles_norm")
}

func BenchmarkTableT2(b *testing.B) {
	tab := runExperiment(b, bench.TableT2)
	var ts, ec float64
	for i := 0; i < len(tab.Rows); i += 2 {
		ts += cellFloat(b, tab.Rows[i][4])
		ec += cellFloat(b, tab.Rows[i+1][4])
	}
	n := float64(len(tab.Rows) / 2)
	b.ReportMetric(ts/n, "ts_cycles_pct")
	b.ReportMetric(ec/n, "ec_cycles_pct")
}

func BenchmarkFigF6(b *testing.B) {
	tab := runExperiment(b, bench.FigF6)
	b.ReportMetric(cellFloat(b, tab.Rows[0][1]), "sense_mae_tick1")
	b.ReportMetric(cellFloat(b, tab.Rows[len(tab.Rows)-1][1]), "sense_mae_tick64")
}

func BenchmarkFigF7(b *testing.B) {
	tab := runExperiment(b, bench.FigF7)
	worst := 0.0
	for _, row := range tab.Rows {
		if v := cellFloat(b, row[1]); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst_regime_mae")
}

func BenchmarkFigF8(b *testing.B) {
	tab := runExperiment(b, bench.FigF8)
	// Headline: tomography accuracy on the flagship identifiable app.
	for _, row := range tab.Rows {
		if row[0] == "sense" {
			b.ReportMetric(cellFloat(b, row[1]), "sense_ct_mae")
			b.ReportMetric(cellFloat(b, row[2]), "sense_sampling_mae")
		}
	}
}

func BenchmarkTableT3(b *testing.B) {
	runExperiment(b, bench.TableT3)
}

func BenchmarkAblationUnroll(b *testing.B) {
	runExperiment(b, bench.AblationUnroll)
}

func BenchmarkAblationPredictor(b *testing.B) {
	runExperiment(b, bench.AblationPredictor)
}

func BenchmarkAblationOptimizations(b *testing.B) {
	runExperiment(b, bench.AblationOptimizations)
}

func BenchmarkAblationDynamicPredictor(b *testing.B) {
	runExperiment(b, bench.AblationDynamicPredictor)
}

// --- Micro-benchmarks of the pipeline's hot components. ---

// BenchmarkSimulator measures raw interpretation speed.
func BenchmarkSimulator(b *testing.B) {
	a, _ := apps.ByName("fir")
	src, _ := a.Source(2000)
	out, err := compile.Build(src, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := mote.DefaultConfig()
		rng := stats.NewRNG(1)
		sensor, _ := workload.Named(a.Workload, rng)
		cfg.Sensor = sensor
		m := mote.New(out.Code, cfg)
		if err := m.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
		cycles = m.Stats().Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkCompiler measures full MiniC compilation throughput.
func BenchmarkCompiler(b *testing.B) {
	a, _ := apps.ByName("aggregate")
	src, _ := a.Source(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Build(src, compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMEstimator measures the estimator on a fixed sample set.
func BenchmarkEMEstimator(b *testing.B) {
	a, _ := apps.ByName("eventdetect")
	src, _ := a.Source(3000)
	out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		b.Fatal(err)
	}
	cfg := mote.DefaultConfig()
	rng := stats.NewRNG(1)
	sensor, _ := workload.Named(a.Workload, rng)
	cfg.Sensor = sensor
	m := mote.New(out.Code, cfg)
	if err := m.Run(2_000_000_000); err != nil {
		b.Fatal(err)
	}
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		b.Fatal(err)
	}
	pm := out.Meta.ProcByName[a.Handler]
	samples := trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], cfg.TickDiv)
	model, err := tomography.NewModelOpts(out, a.Handler, cfg.Predictor,
		markov.EnumerateOptions{MaxVisits: 12, MaxPaths: 30000}, tomography.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tomography.EstimateEM(model, samples, tomography.EMConfig{KernelHalfWidth: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures the facade end to end.
func BenchmarkFullPipeline(b *testing.B) {
	a, _ := apps.ByName("sense")
	src, _ := a.Source(1000)
	b.ResetTimer()
	var red float64
	for i := 0; i < b.N; i++ {
		res, err := codetomo.Run(src, codetomo.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		red = res.MispredictReduction()
	}
	b.ReportMetric(100*red, "mispred_reduction_pct")
}
