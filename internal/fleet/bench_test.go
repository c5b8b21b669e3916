package fleet

import (
	"testing"

	"codetomo/internal/mote"
)

// benchSim is the micro-benchmark deployment: the raw-ISA streaming
// workload on a modestly lossy channel, sized so one iteration simulates
// a full multi-cohort fleet.
func benchSim(workers, cohort int) SimConfig {
	cfg := SimConfig{
		Prog:      streamProg(),
		MaxCycles: 1_000_000,
		Workers:   workers,
		Cohort:    cohort,
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
	cfg := benchSim(4, 64)
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
