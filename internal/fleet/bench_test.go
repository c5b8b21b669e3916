package fleet

import (
	"testing"

	"codetomo/internal/mote"
)

// benchSim is the micro-benchmark deployment: the raw-ISA streaming
// workload on a modestly lossy channel, sized so one iteration simulates
// a full multi-cohort fleet.
func benchSim(workers int) SimConfig {
	cfg := SimConfig{
		Prog:      streamProg(),
		MaxCycles: 1_000_000,
		Workers:   workers,
		Link:      LinkConfig{Seed: 42, DropProb: 0.1},
	}
	cfg.Mote = mote.DefaultConfig()
	cfg.Mote.RAMWords = 64
	return cfg
}

// BenchmarkSimulateStream measures the streaming cohort pipeline's
// per-mote cost — time and, with -benchmem, allocated bytes per
// simulated mote (machine reuse should hold the latter to the retained
// MoteResult, not the simulation).
func BenchmarkSimulateStream(b *testing.B) {
	specs := fleetSpecs(512)
	cfg := benchSim(4)
	pool := NewPool(cfg.Workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		motes := 0
		_, err := SimulateStreamOn(pool, cfg, specs, func(first int, cohort []MoteResult) error {
			motes += len(cohort)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if motes != len(specs) {
			b.Fatalf("sank %d motes", motes)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "motes/s")
}

// maxAllocsPerMote bounds the streaming engine's heap allocations per
// simulated mote at benchSim's configuration. A mote measures 0.32: a
// share of the cohort's sample histograms growing when a round sees a new
// duration, and of each worker's tick buffers growing to their first
// mote. Everything else (machine, RNGs, sensors, link with its packet
// list, frame cache and arenas, receive window, tick buffers) is
// per-worker scratch reused across motes; the bound is tight enough that
// any one of them going back to per-mote allocation fails it.
const maxAllocsPerMote = 1

// TestSimulateStreamAllocsPerMote is the per-mote allocation gate on the
// streaming engine, measured over a warmed multi-cohort fleet.
func TestSimulateStreamAllocsPerMote(t *testing.T) {
	specs := fleetSpecs(256)
	cfg := benchSim(2)
	pool := NewPool(cfg.Workers)
	run := func() {
		if _, err := SimulateStreamOn(pool, cfg, specs, func(int, []MoteResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	perMote := testing.AllocsPerRun(10, run) / float64(len(specs))
	t.Logf("%.2f allocs per mote", perMote)
	if perMote > maxAllocsPerMote {
		t.Fatalf("%.2f allocs per mote, bound %d", perMote, maxAllocsPerMote)
	}
}
