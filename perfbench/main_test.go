package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"codetomo/internal/apps"
)

// tiny returns every workload at a size that runs in well under a second,
// with the same code paths as the full size.
func tiny(corrupt bool) map[string]func(options) (*report, error) {
	blink, _ := apps.ByName("blink")
	sense, _ := apps.ByName("sense")
	return map[string]func(options) (*report, error){
		"pipeline_apps": func(o options) (*report, error) {
			return runPipeline(o, pipelineParams{suite: []apps.App{blink, sense}, iters: 200})
		},
		"fleet_10k": func(o options) (*report, error) {
			return runFleet(o, fleetParams{app: "sense", motes: 48, invocations: 16, warmMotes: 8})
		},
		"station_push": func(o options) (*report, error) {
			return runStation(o, stationParams{app: "sense", motes: 32, invocations: 16, epochFrames: 8, corruptFirst: corrupt})
		},
	}
}

func testOptions(t *testing.T, workload string, seed int64, trace bool) options {
	return options{
		workload: workload,
		seed:     seed,
		seconds:  time.Millisecond,
		trace:    trace,
		root:     "..",
		scratch:  t.TempDir(),
	}
}

// printed runs rep.write and decodes the last line of its output.
func printed(t *testing.T, rep *report) result {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(keys) != 4 {
		t.Fatalf("result has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// metricSet lists name/unit pairs in order.
func metricSet(m map[string]metric) []string {
	var out []string
	for n, v := range m {
		out = append(out, n+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func defSet(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsPrintEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each prints its whole metric set with units,
// attempts operations and fails none; the traced runs also pass the
// replica checks.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for name, run := range tiny(false) {
		for _, trace := range []bool{false, true} {
			rep, err := run(testOptions(t, name, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := printed(t, rep)
			want := defSet(endToEnd)
			if trace {
				want = defSet(perLayer)
			}
			if got := metricSet(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			if !trace {
				for n, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, n)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics checks that the seed reaches every
// workload's inputs while the printed metric set stays the same.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	for name, run := range tiny(false) {
		a, err := run(testOptions(t, name, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(testOptions(t, name, 2, false))
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
		ra, rb := printed(t, a), printed(t, b)
		if strings.Join(metricSet(ra.Metrics), ",") != strings.Join(metricSet(rb.Metrics), ",") {
			t.Errorf("%s: metric set depends on the seed", name)
		}
	}
}

// TestBadFrameIsAFailedOperation injects a corrupted frame into the station
// feed: the station must NAK it and the run must report failed operations,
// not pass silently.
func TestBadFrameIsAFailedOperation(t *testing.T) {
	rep, err := tiny(true)["station_push"](testOptions(t, "station_push", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	res := printed(t, rep)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted frame went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// in step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark runs %d", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRefusesOutsideACheckout checks the command exits non-zero without a
// result when the sources are not there.
func TestRefusesOutsideACheckout(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"--workload", "pipeline_apps", "--seed", "1", "--seconds", "1", "--trace", "0",
		"-root", t.TempDir()}, &out, &errOut)
	if code == 0 || strings.Contains(out.String(), "{") {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
