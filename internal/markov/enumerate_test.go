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

// refClass is one arc-count class of the reference enumeration: its first
// path and how many reference paths share its counts.
type refClass struct {
	first *markov.RefPath
	n     int
}

// referenceClasses runs the original map-based enumerator and groups its
// paths by arc-count vector, classes in the order their first path
// completes.
func referenceClasses(p *cfg.Proc, ix *markov.EdgeIndex, opts markov.EnumerateOptions) (classes []refClass, paths int, truncated bool) {
	ref, truncated := markov.EnumerateReference(p, ix, opts)
	byKey := make(map[string]int)
	for _, rp := range ref {
		arcs := slices.Clone(rp.Arcs)
		slices.SortFunc(arcs, func(a, b markov.Arc) int { return int(a.Edge - b.Edge) })
		key := fmt.Sprint(arcs)
		c, ok := byKey[key]
		if !ok {
			c = len(classes)
			byKey[key] = c
			classes = append(classes, refClass{first: rp})
		}
		classes[c].n++
	}
	return classes, len(ref), truncated
}

// requireReferenceEnumeration pins Enumerate to the original map-based
// enumerator grouped by arc-count class: the same truncation flag, the
// same classes in first-completion order, each represented by the
// reference's first path of the class with the same (edge, count) arcs in
// the same order, each with as many paths as the reference's class, and
// PathTimes bit-identical to the original block-sequence sum.
func requireReferenceEnumeration(t *testing.T, name string, p *cfg.Proc, opts markov.EnumerateOptions, costs *markov.Costs) {
	t.Helper()
	ix := markov.NewEdgeIndex(p)
	got, mult, gotTrunc := markov.Enumerate(p, ix, opts)
	want, wantPaths, wantTrunc := referenceClasses(p, ix, opts)
	if gotTrunc != wantTrunc {
		t.Fatalf("%s %+v: truncated = %v, reference %v", name, opts, gotTrunc, wantTrunc)
	}
	if len(got) != len(want) || len(mult) != len(want) {
		t.Fatalf("%s %+v: %d classes (%d multiplicities), reference %d", name, opts, len(got), len(mult), len(want))
	}
	times := markov.PathTimes(p, ix, got, costs)
	paths := 0
	for c, w := range want {
		if !slices.Equal(got[c], w.first.Arcs) {
			t.Fatalf("%s %+v class %d: arcs %v, reference %v", name, opts, c, got[c], w.first.Arcs)
		}
		if mult[c] != w.n {
			t.Fatalf("%s %+v class %d: multiplicity %d, reference %d paths", name, opts, c, mult[c], w.n)
		}
		if wt := markov.PathTimeReference(w.first, costs); math.Float64bits(times[c]) != math.Float64bits(wt) {
			t.Fatalf("%s %+v class %d: time %v, reference %v", name, opts, c, times[c], wt)
		}
		paths += mult[c]
	}
	if paths != wantPaths {
		t.Fatalf("%s %+v: multiplicities sum to %d, reference %d paths", name, opts, paths, wantPaths)
	}
}

// randomProc builds a random CFG of n blocks with integer-cycle costs,
// drawing every choice from intn (uniform in [0, k)). Targets lean forward
// so most walks reach a return, but any block may jump back (loops) and
// many blocks share successors (multi-way joins); some branches name the
// same block on both arms, so distinct paths share arc counts.
func randomProc(intn func(k int) int, n int) (*cfg.Proc, *markov.Costs) {
	target := func(i int) ir.BlockID {
		if i+1 < n && intn(4) > 0 {
			return ir.BlockID(i + 1 + intn(n-i-1))
		}
		return ir.BlockID(intn(n))
	}
	blocks := make([]*cfg.Block, n)
	for i := range blocks {
		var term ir.Terminator
		switch r := intn(10); {
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
		EntryOverhead: float64(intn(20)),
	}
	for i := range costs.Block {
		costs.Block[i] = float64(intn(120))
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(intn(8))
	}
	return p, costs
}

func TestEnumerateMatchesReferenceRandom(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 1000; trial++ {
		p, costs := randomProc(rng.Intn, 2+rng.Intn(14))
		opts := markov.EnumerateOptions{MaxVisits: 1 + rng.Intn(4), MaxPaths: 1 + rng.Intn(500)}
		requireReferenceEnumeration(t, fmt.Sprintf("trial %d", trial), p, opts, costs)
	}
}

// FuzzEnumerateClasses draws a random CFG and caps from the input bytes
// and requires Enumerate's class fold to equal the grouped reference.
func FuzzEnumerateClasses(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 60, 9, 4, 1, 4, 4, 3, 8, 0, 5, 5, 2, 7, 1})
	f.Add([]byte{13, 3, 200, 4, 4, 0, 4, 1, 4, 2, 9, 9, 9, 1, 4, 3, 6, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		// intn consumes one byte per draw and reads zeros once data runs
		// out, so every input names one procedure.
		intn := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % k
		}
		n, visits, maxPaths := 2+intn(14), 1+intn(4), 1+intn(256)
		p, costs := randomProc(intn, n)
		requireReferenceEnumeration(t, "fuzz", p, markov.EnumerateOptions{MaxVisits: visits, MaxPaths: maxPaths}, costs)
	})
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
		{MaxVisits: 0, MaxPaths: 0}, // one visit, and not one path
	}
	for _, ap := range appProcs(t) {
		for _, opts := range caps {
			requireReferenceEnumeration(t, ap.name, ap.proc, opts, ap.costs)
		}
	}
}

// crc8Classes is the number of arc-count classes among crc8's MaxPaths
// paths at the pipeline bound.
const crc8Classes = 220

// Enumerate's allocations do not grow with the path count: crc8 folds the
// MaxPaths paths the cap allows into crc8Classes classes, and its buffers
// grow by doubling.
func TestEnumerateAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	crc := findProc(t, appProcs(t), "crc.crc8")
	ix := markov.NewEdgeIndex(crc.proc)
	paths, mult, _ := markov.Enumerate(crc.proc, ix, pipelineEnum)
	n := 0
	for _, k := range mult {
		n += k
	}
	if n != pipeline.MaxPaths || len(paths) != crc8Classes {
		t.Fatalf("crc8: %d paths in %d classes, want the %d cap in %d", n, len(paths), pipeline.MaxPaths, crc8Classes)
	}
	const bound = 128
	if avg := testing.AllocsPerRun(3, func() { markov.Enumerate(crc.proc, ix, pipelineEnum) }); avg > bound {
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

// A procedure with few classes builds no hash table, so a small procedure
// costs no more than it did under the per-path map enumerator.
func TestEnumerateSmallProcBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	sense := findProc(t, appProcs(t), "sense.sample")
	ix := markov.NewEdgeIndex(sense.proc)
	got := bytesPerRun(1000, func() { markov.Enumerate(sense.proc, ix, pipelineEnum) })
	want := bytesPerRun(1000, func() { markov.EnumerateReference(sense.proc, ix, pipelineEnum) })
	if got > want {
		t.Errorf("Enumerate(sample): %d B per run, reference %d B", got, want)
	}
}

func BenchmarkEnumerate(b *testing.B) {
	procs := appProcs(b)
	for _, name := range []string{"sense.sample", "crc.crc8"} {
		ap := findProc(b, procs, name)
		ix := markov.NewEdgeIndex(ap.proc)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				markov.Enumerate(ap.proc, ix, pipelineEnum)
			}
		})
	}
}

// BenchmarkNewSortedTimes indexes crc8's class times at the pipeline
// bound.
func BenchmarkNewSortedTimes(b *testing.B) {
	crc := findProc(b, appProcs(b), "crc.crc8")
	ix := markov.NewEdgeIndex(crc.proc)
	paths, _, _ := markov.Enumerate(crc.proc, ix, pipelineEnum)
	times := markov.PathTimes(crc.proc, ix, paths, crc.costs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markov.NewSortedTimes(times)
	}
}
