//go:build !race

package tomography_test

import (
	"runtime"
	"testing"
)

// maxCRCModelBytes bounds the bytes NewModelOpts allocates for crc's
// handler model at the pipeline's enumeration bound, whose 30000 paths
// fold into 220 arc-count classes. A build measures 317.8 KB (2-vCPU
// x86-64, Go 1.24): the enumeration's class table and arcs are about
// 85 KB, and the rest the static range analysis, the costs and the class
// durations. When every path was stored, as 8-byte arcs carved from a
// shared arena, the same build allocated 4.86 MB, 13.6 bytes per arc of
// its 357954.
const maxCRCModelBytes = 384 << 10

// TestModelBytesPerArc builds crc's handler model once to warm up and once
// measured, and bounds the measured build's allocated bytes, so a path is
// never stored per enumerated path again. It logs the bytes per arc of the
// class set. The race detector's instrumentation allocates on its own, so
// the test is built without it only.
func TestModelBytesPerArc(t *testing.T) {
	prof, handler := crcProfile(t)
	newCRCModel(t, prof, handler)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newCRCModel(t, prof, handler)
	runtime.ReadMemStats(&after)
	arcs, paths := 0, 0
	for j, p := range m.Paths {
		arcs, paths = arcs+len(p), paths+m.Mult[j]
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d paths in %d classes, %d arcs, %d bytes (%.1f per arc)", paths, len(m.Paths), arcs, bytes, float64(bytes)/float64(arcs))
	if bytes > maxCRCModelBytes {
		t.Fatalf("%d bytes allocated, bound %d", bytes, maxCRCModelBytes)
	}
}
