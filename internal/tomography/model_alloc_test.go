//go:build !race

package tomography_test

import (
	"runtime"
	"testing"
)

// maxModelBytesPerArc bounds the bytes NewModelOpts allocates per arc of
// crc's handler model. A build measures 13.6 bytes per arc (2-vCPU
// x86-64, Go 1.24): 8 for the arc itself, about 4 for the path headers as
// the path slice grows, and the rest the path durations and the static
// range analysis. When each path
// was stored as 28-byte arcs plus a 64-byte header, and copied again into
// a compressed sparse row form on first estimation, building the same
// model allocated 35.4 bytes per arc.
const maxModelBytesPerArc = 16

// TestModelBytesPerArc builds crc's handler model once to warm up and once
// measured, and bounds the measured build's allocated bytes per arc of its
// path set. The race detector's instrumentation allocates on its own, so
// the test is built without it only.
func TestModelBytesPerArc(t *testing.T) {
	prof, handler := crcProfile(t)
	newCRCModel(t, prof, handler)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newCRCModel(t, prof, handler)
	runtime.ReadMemStats(&after)
	arcs := 0
	for _, p := range m.Paths {
		arcs += len(p)
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(arcs)
	t.Logf("%d paths, %d arcs, %.1f bytes allocated per arc", len(m.Paths), arcs, perArc)
	if perArc > maxModelBytesPerArc {
		t.Fatalf("%.1f bytes allocated per arc, bound %d", perArc, maxModelBytesPerArc)
	}
}
