//go:build !race

package codetomo_test

import (
	"runtime"
	"testing"

	"codetomo"
	"codetomo/internal/apps"
)

// maxFleetKiBPerMote bounds the bytes RunFleet allocates per mote at the
// benchmark's fleet_10k configuration on two workers. A run measures
// 0.097 KiB per mote (2-vCPU x86-64, Go 1.24), two fifths of it the mote
// specs. It measured 0.17 KiB while each mote built its own sensor, NACK
// list and corrupted-frame copies and each rejected frame a formatted
// error, and 2.32 KiB when every sample was copied into a per-mote map,
// into uplink rounds and into one slice per procedure before estimation.
const maxFleetKiBPerMote = 0.3

// TestRunFleetAllocsPerMote runs the fleet_10k deployment (10⁴ sense
// motes, 64 invocations each, on a lossy ARQ link) once to warm up and
// once measured, and bounds the measured run's allocated bytes per mote.
// The workers are fixed at two, as each brings a machine and its scratch
// (about 50 KB), so the bound holds whatever the host's core count. The
// race detector's instrumentation allocates on its own, so the test is
// built without it only.
func TestRunFleetAllocsPerMote(t *testing.T) {
	a, _ := apps.ByName("sense")
	src, err := a.Source(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := codetomo.FleetConfig{
		Config:      codetomo.PipelineAppsConfig(a.Workload, 1),
		Motes:       10_000,
		Workers:     2,
		DropProb:    0.05,
		CorruptProb: 0.02,
		ARQRetries:  3,
	}
	if _, err := codetomo.RunFleet(src, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := codetomo.RunFleet(src, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perMote := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(cfg.Motes)
	t.Logf("%.3f KiB allocated per mote", perMote)
	if perMote > maxFleetKiBPerMote {
		t.Fatalf("%.3f KiB allocated per mote, bound %v", perMote, maxFleetKiBPerMote)
	}
}
