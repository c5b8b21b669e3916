//go:build !race

package mote

import (
	"sort"
	"testing"

	"codetomo/internal/isa"
)

// TestDispatchCensus steps the reference core over the compiled,
// timestamp-instrumented crc and sense kernels of BenchmarkRun and
// attributes every step to the dispatch kind the block core decodes at the
// pc where that dispatch starts. It logs instructions per dispatch and the
// most frequent pairs of consecutive kinds (the candidates for the next
// fusion), and fails when instructions per dispatch fall below the floor
// the block core reaches today, so a lost fusion shows here before it
// shows as a slower benchmark.
func TestDispatchCensus(t *testing.T) {
	// Measured 6.77 and 3.51 when the floors were set (6.58 and 2.22
	// before the call entry, return and port kinds, call threading and
	// the swapped compare; 2.06 and 1.55 before the second wave of fused
	// idioms and jump threading).
	floors := map[string]float64{"crc": 6.7, "sense": 3.5}
	for _, k := range kernels() {
		floor, ok := floors[k.name]
		if !ok {
			continue
		}
		m := New(k.prog, k.cfg())
		dec := m.code.dec
		var instrs, dispatches int
		pairs := map[[2]isa.Op]int{}
		prev, left := opEnd, 0
		for !m.halted {
			if left == 0 {
				op := dec[m.pc].Op
				pairs[[2]isa.Op{prev, op}]++
				prev, left = op, fusedLen(op)
				if j := dec[int(m.pc)+left].Op; op >= opBinopCp && op <= opCopyExprCp && (j == opJmp || j == opJmpX) {
					left++ // a copy tail runs the threaded jump that follows it
				}
				dispatches++
			}
			if err := m.Step(); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			left--
			instrs++
		}
		type pair struct {
			kinds [2]isa.Op
			n     int
		}
		var top []pair
		for kinds, n := range pairs {
			top = append(top, pair{kinds, n})
		}
		sort.Slice(top, func(i, j int) bool {
			return top[i].n > top[j].n || top[i].n == top[j].n && top[i].kinds[0] < top[j].kinds[0]
		})
		per := float64(instrs) / float64(dispatches)
		t.Logf("%s: %d instructions in %d dispatches, %.2f per dispatch", k.name, instrs, dispatches, per)
		for _, p := range top[:min(len(top), 8)] {
			t.Logf("  %-11s -> %-11s %5.1f%%", kindName(p.kinds[0]), kindName(p.kinds[1]), 100*float64(p.n)/float64(dispatches))
		}
		if per < floor {
			t.Errorf("%s: %.2f instructions per dispatch, want at least %.1f", k.name, per, floor)
		}
	}
}
