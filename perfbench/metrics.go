package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one metric. exact marks a per-layer value that is a
// deterministic count: every traced pass of a run must reproduce it, and a
// pass that does not is a failed operation.
type metricDef struct {
	name, unit, better string
	exact              bool
}

// endToEnd is what a user of the system sees, printed by every workload
// with tracing off. Each workload gives each metric its own meaning (see
// README.md): an operation is a Run on pipeline_apps, a mote on fleet_10k
// and a frame on station_push. accuracy_mean is 1 - mae_mean: a regression
// bound is a share of a metric's median, and a share of an error close to
// 0 is noise, while a share of the accuracy is a fixed number of
// probability points.
var endToEnd = []metricDef{
	{name: "run_ms_geomean", unit: "ms", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "speedup_geomean", unit: "x", better: "higher"},
	{name: "accuracy_mean", unit: "prob", better: "higher"},
	{name: "trusted_procs", unit: "count", better: "higher"},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is what a traced run prints. A workload that does not exercise
// a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "compile.build_ms", unit: "ms", better: "lower"},
	{name: "compile.builds", unit: "count", better: "lower", exact: true},
	{name: "compile.code_words", unit: "count", better: "lower", exact: true},
	{name: "compile.alloc_kb", unit: "KiB", better: "lower"},
	{name: "mote.run_ms", unit: "ms", better: "lower"},
	{name: "mote.instructions", unit: "count", better: "lower", exact: true},
	{name: "mote.cycles", unit: "count", better: "lower", exact: true},
	{name: "mote.sim_minstr_per_s", unit: "Minstr/s", better: "higher"},
	{name: "mote.alloc_kb", unit: "KiB", better: "lower"},
	{name: "trace.extract_ms", unit: "ms", better: "lower"},
	{name: "trace.intervals", unit: "count", better: "lower", exact: true},
	{name: "trace.decode_ns", unit: "ns", better: "lower"},
	{name: "trace.alloc_kb", unit: "KiB", better: "lower"},
	{name: "tomography.model_ms", unit: "ms", better: "lower"},
	{name: "tomography.paths", unit: "count", better: "lower", exact: true},
	{name: "tomography.truncated_procs", unit: "count", better: "lower", exact: true},
	{name: "tomography.coverage_ms", unit: "ms", better: "lower"},
	{name: "tomography.estimate_ms", unit: "ms", better: "lower"},
	{name: "tomography.em_iterations", unit: "count", better: "lower", exact: true},
	{name: "tomography.alloc_kb", unit: "KiB", better: "lower"},
	{name: "layout.plan_ms", unit: "ms", better: "lower"},
	{name: "layout.alloc_kb", unit: "KiB", better: "lower"},
	{name: "fleet.sim_s", unit: "s", better: "lower"},
	{name: "fleet.uplink_ms", unit: "ms", better: "lower"},
	{name: "fleet.estimate_ms", unit: "ms", better: "lower"},
	{name: "fleet.frames_sent", unit: "count", better: "lower", exact: true},
	{name: "fleet.retransmissions", unit: "count", better: "lower", exact: true},
	{name: "fleet.goodput_frac", unit: "frac", better: "higher", exact: true},
	{name: "fleet.invocations_discarded", unit: "count", better: "lower", exact: true},
	{name: "fleet.rounds", unit: "count", better: "lower", exact: true},
	{name: "fleet.peak_heap_mb", unit: "MiB", better: "lower"},
	{name: "fleet.alloc_kb", unit: "KiB", better: "lower"},
	{name: "station.ingest_us", unit: "us", better: "lower"},
	{name: "station.cut_ms", unit: "ms", better: "lower"},
	{name: "station.ack_us_p50", unit: "us", better: "lower"},
	{name: "station.ack_us_p99", unit: "us", better: "lower"},
	{name: "station.restart_ms", unit: "ms", better: "lower"},
	{name: "station.frames_accepted", unit: "count", better: "higher", exact: true},
	{name: "station.frames_rejected", unit: "count", better: "lower", exact: true},
	{name: "station.invocations_discarded", unit: "count", better: "lower", exact: true},
	{name: "station.wal_bytes", unit: "B", better: "lower", exact: true},
	{name: "station.recovered_records", unit: "count", better: "lower", exact: true},
	{name: "station.alloc_kb", unit: "KiB", better: "lower"},
	{name: "loc.codetomo", unit: "lines", better: "lower", exact: true},
	{name: "loc.compile", unit: "lines", better: "lower", exact: true},
	{name: "loc.mote", unit: "lines", better: "lower", exact: true},
	{name: "loc.trace", unit: "lines", better: "lower", exact: true},
	{name: "loc.tomography", unit: "lines", better: "lower", exact: true},
	{name: "loc.markov", unit: "lines", better: "lower", exact: true},
	{name: "loc.layout", unit: "lines", better: "lower", exact: true},
	{name: "loc.fleet", unit: "lines", better: "lower", exact: true},
	{name: "loc.station", unit: "lines", better: "lower", exact: true},
	{name: "loc.total", unit: "lines", better: "lower", exact: true},
	{name: "bench.trace_overhead_ms", unit: "ms", better: "lower"},
}

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count) of xs; 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// heapAllocs reads the process's cumulative heap allocation counters
// without stopping the world.
func heapAllocs() (bytes, objects uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapLive reads the bytes held by live and not yet swept heap objects.
func heapLive() uint64 {
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// passValues is one traced pass's per-layer values. Passes are folded by
// foldPasses: exact metrics must agree, the rest take the median.
type passValues map[string]float64

// foldPasses records the per-layer metrics from every traced pass. A pass
// whose exact counts differ from the first pass's is a failed operation.
func foldPasses(r *report, passes []passValues) {
	for _, d := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[d.name])
		}
		if d.exact {
			for i, x := range xs {
				if x != xs[0] {
					r.fail(1, "%s differs between traced passes: %v in pass 1, %v in pass %d", d.name, xs[0], x, i+1)
				}
			}
			r.set(d.name, xs[0])
			continue
		}
		r.set(d.name, median(xs))
	}
}
