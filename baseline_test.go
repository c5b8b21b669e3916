package codetomo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The perf baseline gate. verify.sh runs every perfbench workload for
// about a second at seed 1, once untraced and once traced, keeps each
// run's output in a directory, and runs TestBenchBaseline on it with
// CODETOMO_BENCH_DIR naming that directory. The test compares the
// timing-free fields with BENCH_BASELINE.json: the work counters, the
// line counts and the deterministic result metrics must match exactly,
// and alloc_kb_per_op may move by baselineAllocShare of its value.
// Timings are logged, never gated. With -update it rewrites the file from
// the runs instead, which a change that moves a counter, a line count or
// its allocations does on purpose.

const (
	baselineFile       = "BENCH_BASELINE.json"
	baselineAllocShare = 0.1 // BENCHMARK.json's bound on alloc_kb_per_op
)

var baselineWorkloads = []string{"pipeline_apps", "fleet_10k", "station_push"}

// baselineExact lists the gated fields besides loc.*: the first three from
// the untraced run, the work counters from the traced one.
var baselineExact = []string{
	"speedup_geomean", "accuracy_mean", "trusted_procs",
	"mote.instructions", "mote.cycles", "compile.builds", "compile.code_words",
	"tomography.paths", "tomography.truncated_procs", "tomography.em_iterations",
	"trace.intervals", "fleet.frames_sent", "fleet.retransmissions", "fleet.rounds",
	"station.frames_accepted", "station.wal_bytes", "station.recovered_records",
}

// baselineTimings are logged for the reader.
var baselineTimings = []string{"run_ms_geomean", "ops_per_s", "mote.run_ms", "fleet.sim_s", "station.ack_us_p50"}

type benchBaseline struct {
	About     []string                    `json:"about"`
	Workloads map[string]workloadBaseline `json:"workloads"`
}

type workloadBaseline struct {
	AllocKBPerOp float64            `json:"alloc_kb_per_op"`
	Exact        map[string]float64 `json:"exact"`
}

var baselineAbout = []string{
	"Timing-free perfbench fields at seed 1, compared by TestBenchBaseline in verify.sh's perf baseline step.",
	"exact: speedup_geomean, accuracy_mean and trusted_procs of a --trace 0 run, the work counters and loc.* of a --trace 1 run; they must match exactly.",
	"alloc_kb_per_op (--trace 0) may move by 0.1 of its value, BENCHMARK.json's bound.",
	"Every counter here was identical under GOMAXPROCS 1 and 2 on all three workloads, station_push included.",
	"The per-layer *.alloc_kb fields are left out: they are process-wide heap deltas around a span, so work on other goroutines lands in them, and they moved 10-30% between GOMAXPROCS 1 and 2.",
	"Regenerate with verify.sh's perf baseline commands and go test . -run '^TestBenchBaseline$' -update, and say in the change which fields moved.",
}

// readBenchResult returns the metrics of the JSON line that ends a
// perfbench output file.
func readBenchResult(t *testing.T, path string) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a perfbench result: %v", path, err)
	}
	if !res.Correct {
		t.Fatalf("%s: perfbench run not correct", path)
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out
}

func TestBenchBaseline(t *testing.T) {
	dir := os.Getenv("CODETOMO_BENCH_DIR")
	if dir == "" {
		t.Skip("CODETOMO_BENCH_DIR unset: verify.sh's perf baseline step sets it")
	}
	got := benchBaseline{About: baselineAbout, Workloads: map[string]workloadBaseline{}}
	for _, w := range baselineWorkloads {
		plain := readBenchResult(t, filepath.Join(dir, w+"-trace0.out"))
		traced := readBenchResult(t, filepath.Join(dir, w+"-trace1.out"))
		wb := workloadBaseline{AllocKBPerOp: plain["alloc_kb_per_op"], Exact: map[string]float64{}}
		for i, name := range baselineExact {
			src := traced
			if i < 3 {
				src = plain
			}
			v, ok := src[name]
			if !ok {
				t.Fatalf("%s: no %s in the run", w, name)
			}
			wb.Exact[name] = v
		}
		for name, v := range traced {
			if strings.HasPrefix(name, "loc.") {
				wb.Exact[name] = v
			}
		}
		got.Workloads[w] = wb
		var timings []string
		for _, name := range baselineTimings {
			for _, src := range []map[string]float64{plain, traced} {
				if v, ok := src[name]; ok && v != 0 {
					timings = append(timings, fmt.Sprintf("%s %.4g", name, v))
					break
				}
			}
		}
		t.Logf("%s timings (not gated): %s", w, strings.Join(timings, ", "))
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var want benchBaseline
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: %v", baselineFile, err)
	}
	for _, w := range baselineWorkloads {
		g, wb := got.Workloads[w], want.Workloads[w]
		names := make([]string, 0, len(g.Exact))
		for name := range g.Exact {
			names = append(names, name)
		}
		for name := range wb.Exact {
			if _, ok := g.Exact[name]; !ok {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			gv, gok := g.Exact[name]
			wv, wok := wb.Exact[name]
			if gok != wok || gv != wv {
				t.Errorf("%s %s = %v (present %v), baseline %v (present %v)", w, name, gv, gok, wv, wok)
			}
		}
		if d := math.Abs(g.AllocKBPerOp - wb.AllocKBPerOp); d > baselineAllocShare*wb.AllocKBPerOp {
			t.Errorf("%s alloc_kb_per_op = %.4f, baseline %.4f: moved more than %.0f%%", w, g.AllocKBPerOp, wb.AllocKBPerOp, 100*baselineAllocShare)
		} else {
			t.Logf("%s alloc_kb_per_op %.4f (baseline %.4f)", w, g.AllocKBPerOp, wb.AllocKBPerOp)
		}
	}
}
