package markov_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
)

// pipelineEnum is the enumeration bound every caller of the estimation
// core uses.
var pipelineEnum = markov.EnumerateOptions{MaxVisits: pipeline.DefaultMaxVisits, MaxPaths: pipeline.MaxPaths}

// appProc is one procedure of a profiled app build with its
// compile-derived costs.
type appProc struct {
	name  string
	proc  *cfg.Proc
	costs *markov.Costs
}

// appProcs compiles every app of the suite plus the call-chain kernel the
// way the pipeline profiles them and returns all their procedures.
func appProcs(t testing.TB) []appProc {
	t.Helper()
	var out []appProc
	for _, a := range append(apps.All(), apps.CallChain) {
		src, err := a.Source(100)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, p := range prof.CFG.Procs {
			costs, err := tomography.BuildCosts(prof.Meta, prof.Meta.ProcByName[p.Name], p, mote.StaticNotTaken{})
			if err != nil {
				t.Fatalf("%s.%s: %v", a.Name, p.Name, err)
			}
			out = append(out, appProc{name: a.Name + "." + p.Name, proc: p, costs: costs})
		}
	}
	return out
}

// findProc returns the named app procedure ("app.proc").
func findProc(t testing.TB, procs []appProc, name string) appProc {
	t.Helper()
	for _, ap := range procs {
		if ap.name == name {
			return ap
		}
	}
	t.Fatalf("no procedure %s", name)
	return appProc{}
}

// requireReferenceEnumeration pins Enumerate to the original map-based
// enumerator: the same truncation flag, the same paths in the same order,
// each with the same entry and the same (edge, count) arcs in the same
// order, and PathTimes bit-identical to the original block-sequence sum.
func requireReferenceEnumeration(t *testing.T, name string, p *cfg.Proc, opts markov.EnumerateOptions, costs *markov.Costs) {
	t.Helper()
	got, gotTrunc := markov.Enumerate(p, opts)
	want, wantTrunc := markov.EnumerateReference(p, opts)
	if gotTrunc != wantTrunc {
		t.Fatalf("%s %+v: truncated = %v, reference %v", name, opts, gotTrunc, wantTrunc)
	}
	if len(got) != len(want) {
		t.Fatalf("%s %+v: %d paths, reference %d", name, opts, len(got), len(want))
	}
	times := markov.PathTimes(p, got, costs)
	for j, w := range want {
		g := got[j]
		if g.Entry != w.Blocks[0] {
			t.Fatalf("%s %+v path %d: entry %v, reference %v", name, opts, j, g.Entry, w.Blocks[0])
		}
		if !slices.Equal(g.Arcs, w.Arcs) {
			t.Fatalf("%s %+v path %d: arcs %v, reference %v", name, opts, j, g.Arcs, w.Arcs)
		}
		if wt := markov.PathTimeReference(w, costs); math.Float64bits(times[j]) != math.Float64bits(wt) {
			t.Fatalf("%s %+v path %d: time %v, reference %v", name, opts, j, times[j], wt)
		}
	}
}

// randomProc builds a random CFG of n blocks with integer-cycle costs.
// Targets lean forward so most walks reach a return, but any block may
// jump back (loops) and many blocks share successors (multi-way joins);
// some branches name the same block on both arms.
func randomProc(rng *stats.RNG, n int) (*cfg.Proc, *markov.Costs) {
	target := func(i int) ir.BlockID {
		if i+1 < n && rng.Intn(4) > 0 {
			return ir.BlockID(i + 1 + rng.Intn(n-i-1))
		}
		return ir.BlockID(rng.Intn(n))
	}
	blocks := make([]*cfg.Block, n)
	for i := range blocks {
		var term ir.Terminator
		switch r := rng.Intn(10); {
		case i == n-1 || r == 0:
			term = ir.Ret{Val: -1}
		case r < 4:
			term = ir.Jmp{Target: target(i)}
		case r == 4:
			s := target(i)
			term = ir.Br{Cond: 0, True: s, False: s}
		default:
			term = ir.Br{Cond: 0, True: target(i), False: target(i)}
		}
		blocks[i] = &cfg.Block{ID: ir.BlockID(i), Term: term}
	}
	p := &cfg.Proc{Name: fmt.Sprintf("rand%d", n), Entry: 0, Blocks: blocks}
	costs := &markov.Costs{
		Block:         make([]float64, n),
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: float64(rng.Intn(20)),
	}
	for i := range costs.Block {
		costs.Block[i] = float64(rng.Intn(120))
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(rng.Intn(8))
	}
	return p, costs
}

func TestEnumerateMatchesReferenceRandom(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 1000; trial++ {
		p, costs := randomProc(rng, 2+rng.Intn(14))
		opts := markov.EnumerateOptions{MaxVisits: 1 + rng.Intn(4), MaxPaths: 1 + rng.Intn(500)}
		requireReferenceEnumeration(t, fmt.Sprintf("trial %d", trial), p, opts, costs)
	}
}

func TestEnumerateMatchesReferenceApps(t *testing.T) {
	for _, ap := range appProcs(t) {
		requireReferenceEnumeration(t, ap.name, ap.proc, pipelineEnum, ap.costs)
	}
}

// Small caps cut the search in every way: a single visit per block (no
// loop iterations), a path cap below the path count, and both.
func TestEnumerateMatchesReferenceSmallCaps(t *testing.T) {
	caps := []markov.EnumerateOptions{
		{MaxVisits: 1, MaxPaths: 1},
		{MaxVisits: 1, MaxPaths: 5},
		{MaxVisits: 2, MaxPaths: 7},
		{MaxVisits: 3, MaxPaths: 100},
		{MaxVisits: 0, MaxPaths: 0}, // both default
	}
	for _, ap := range appProcs(t) {
		for _, opts := range caps {
			requireReferenceEnumeration(t, ap.name, ap.proc, opts, ap.costs)
		}
	}
}

// Enumerate's allocations do not grow with the path count: crc8 yields
// MaxPaths paths at the pipeline bound, yet the arena takes only a
// logarithmic number of chunks.
func TestEnumerateAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	crc := findProc(t, appProcs(t), "crc.crc8")
	paths, _ := markov.Enumerate(crc.proc, pipelineEnum)
	if len(paths) != pipeline.MaxPaths {
		t.Fatalf("crc8: %d paths, want the %d cap", len(paths), pipeline.MaxPaths)
	}
	const bound = 128
	if avg := testing.AllocsPerRun(3, func() { markov.Enumerate(crc.proc, pipelineEnum) }); avg > bound {
		t.Errorf("Enumerate(crc8): %v allocs per run, want <= %d", avg, bound)
	}
}

// bytesPerRun returns the heap bytes f allocates per call, averaged over
// runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The arena is sized to the path set, so a small procedure costs no more
// than it did under the per-path map enumerator.
func TestEnumerateSmallProcBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	sense := findProc(t, appProcs(t), "sense.sample")
	got := bytesPerRun(1000, func() { markov.Enumerate(sense.proc, pipelineEnum) })
	want := bytesPerRun(1000, func() { markov.EnumerateReference(sense.proc, pipelineEnum) })
	if got > want {
		t.Errorf("Enumerate(sample): %d B per run, reference %d B", got, want)
	}
}

func BenchmarkEnumerate(b *testing.B) {
	procs := appProcs(b)
	for _, name := range []string{"sense.sample", "crc.crc8"} {
		ap := findProc(b, procs, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				markov.Enumerate(ap.proc, pipelineEnum)
			}
		})
	}
}
