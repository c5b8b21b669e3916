package markov

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/stats"
)

// diamondChain builds k sequential diamonds (2^k paths) with distinct arm
// costs so every path has a unique duration — the scaling shape used by the
// kernel benchmarks.
func diamondChain(k int) (*cfg.Proc, *Costs) {
	var blocks []*cfg.Block
	next := func() ir.BlockID { return ir.BlockID(len(blocks)) }
	costs := &Costs{Edge: make(map[[2]ir.BlockID]float64)}
	var blockCosts []float64
	for i := 0; i < k; i++ {
		head := next()
		blocks = append(blocks, &cfg.Block{ID: head, Term: ir.Br{Cond: 0, True: head + 1, False: head + 2}})
		blockCosts = append(blockCosts, 3)
		blocks = append(blocks, &cfg.Block{ID: head + 1, Term: ir.Jmp{Target: head + 3}})
		blockCosts = append(blockCosts, float64(int(1)<<uint(i))) // distinct power-of-two arm
		blocks = append(blocks, &cfg.Block{ID: head + 2, Term: ir.Jmp{Target: head + 3}})
		blockCosts = append(blockCosts, 0)
		if i == k-1 {
			blocks = append(blocks, &cfg.Block{ID: head + 3, Term: ir.Ret{Val: -1}})
			blockCosts = append(blockCosts, 5)
		}
	}
	p := &cfg.Proc{Name: fmt.Sprintf("chain%d", k), Entry: 0, Blocks: blocks}
	costs.Block = blockCosts
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = 0
	}
	return p, costs
}

func TestCompiledPathProbsMatchReference(t *testing.T) {
	for _, build := range []func() *cfg.Proc{diamond, loopProc} {
		p := build()
		paths, _ := Enumerate(p, EnumerateOptions{MaxVisits: 6, MaxPaths: 1000})
		cp := Compile(p, paths)
		if cp.NumPaths() != len(paths) {
			t.Fatalf("%s: NumPaths = %d, want %d", p.Name, cp.NumPaths(), len(paths))
		}
		ep := Uniform(p)
		// Skew every branch so the probabilities are not symmetric.
		for _, b := range p.Blocks {
			succs := b.Succs()
			if len(succs) < 2 {
				continue
			}
			ep[[2]ir.BlockID{b.ID, succs[0]}] = 0.3
			ep[[2]ir.BlockID{b.ID, succs[1]}] = 0.7
		}
		q := cp.Index.Dense(ep)
		logq := make([]float64, cp.Index.Len())
		cp.LogProbs(q, logq)
		got := make([]float64, len(paths))
		cp.PathProbs(logq, got)
		for j, path := range paths {
			want := path.Prob(ep)
			if got[j] != want {
				t.Fatalf("%s path %d: dense prob %v != reference %v", p.Name, j, got[j], want)
			}
		}
	}
}

func TestCompiledPathProbsZeroEdge(t *testing.T) {
	p := diamond()
	paths, _ := Enumerate(p, DefaultEnumerateOptions())
	cp := Compile(p, paths)
	ep := Uniform(p)
	ep[edge(0, 1)] = 0
	ep[edge(0, 2)] = 1
	q := cp.Index.Dense(ep)
	logq := make([]float64, cp.Index.Len())
	cp.LogProbs(q, logq)
	out := make([]float64, len(paths))
	cp.PathProbs(logq, out)
	for j, path := range paths {
		if want := path.Prob(ep); out[j] != want {
			t.Fatalf("path %d: dense %v != reference %v under a zero edge", j, out[j], want)
		}
	}
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	p, _ := diamondChain(3)
	ix := NewEdgeIndex(p)
	ep := Uniform(p)
	if ix.Len() != len(ep) {
		t.Fatalf("indexed %d edges, Uniform has %d", ix.Len(), len(ep))
	}
	dense := ix.Dense(ep)
	back := ix.Probs(dense)
	if len(back) != len(ep) {
		t.Fatalf("round trip lost edges: %d vs %d", len(back), len(ep))
	}
	for e, v := range ep {
		if back[e] != v {
			t.Fatalf("edge %v: %v != %v after round trip", e, back[e], v)
		}
	}
	for i := 0; i < ix.Len(); i++ {
		if j, ok := ix.Index(ix.edges[i]); !ok || int(j) != i {
			t.Fatalf("Index(edges[%d]) = %d, %v", i, j, ok)
		}
	}
}

func TestSortedTimesWindowMatchesScan(t *testing.T) {
	p, costs := diamondChain(6)
	paths, _ := Enumerate(p, DefaultEnumerateOptions())
	times := PathTimes(p, paths, costs)
	st := NewSortedTimes(times)
	if !sort.Float64sAreSorted(st.Times) {
		t.Fatal("times not sorted")
	}
	rng := stats.NewRNG(17)
	for trial := 0; trial < 2000; trial++ {
		obs := rng.Float64() * (st.Times[len(st.Times)-1] + 20)
		hw := rng.Float64() * 10
		// Reference: the linear scan predicate.
		want := map[int]bool{}
		for j, tau := range times {
			if math.Abs(obs-tau) <= hw {
				want[j] = true
			}
		}
		lo, hi := st.Window(obs, hw)
		got := map[int]bool{}
		for i := lo; i < hi; i++ {
			got[int(st.Idx[i])] = true
		}
		if len(got) != len(want) {
			t.Fatalf("window(%v,%v): %d paths, scan found %d", obs, hw, len(got), len(want))
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("window(%v,%v) missing path %d", obs, hw, j)
			}
		}
		if st.Within(obs, hw) != (len(want) > 0) {
			t.Fatalf("Within(%v,%v) = %v, want %v", obs, hw, st.Within(obs, hw), len(want) > 0)
		}
	}
}

func TestSortedTimesNearestMatchesScan(t *testing.T) {
	// Duplicate times included: nearest must break ties toward the lowest
	// path index, exactly like the reference scan.
	times := []float64{40, 10, 20, 20, 30, 10, 25}
	st := NewSortedTimes(times)
	rng := stats.NewRNG(23)
	for trial := 0; trial < 2000; trial++ {
		obs := rng.Float64() * 50
		best, bd := -1, math.Inf(1)
		for j, tau := range times {
			if d := math.Abs(obs - tau); d < bd {
				best, bd = j, d
			}
		}
		if got := st.Nearest(obs); got != best {
			t.Fatalf("Nearest(%v) = %d, want %d", obs, got, best)
		}
	}
	if (&SortedTimes{}).Nearest(5) != -1 {
		t.Fatal("empty Nearest must return -1")
	}
}

// fuzzTime decodes one fuzzed time from a (kind, value) byte pair: a
// special value (NaN of either sign, ±0, ±Inf, the extremes, subnormals),
// a small integer with many ties, a dyadic or a full-mantissa fraction, a
// time just above 1 that differs from its neighbours only in the low two
// bytes, or an arbitrary bit pattern.
func fuzzTime(kind, v byte) float64 {
	specials := [...]float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	switch kind % 6 {
	case 0:
		return specials[int(v)%len(specials)]
	case 1:
		return float64(int8(v))
	case 2:
		return float64(int8(v)) / 8
	case 3:
		return float64(int8(v)) / 3
	case 4:
		return math.Float64frombits(math.Float64bits(1) | uint64(kind)<<8 | uint64(v))
	}
	return math.Float64frombits(uint64(v)*0x0101010101010101 ^ uint64(kind)<<56)
}

// FuzzSortedTimes pins NewSortedTimes to the comparator sort it replaced:
// the same permutation, and sorted times equal bit for bit (so a −0 stays
// −0 and a NaN keeps its payload), on any input.
func FuzzSortedTimes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 1, 3, 1, 5, 1, 3})                    // ties
	f.Add([]byte{0, 2, 0, 3, 0, 3, 0, 2, 1, 0})              // ±0
	f.Add([]byte{0, 0, 1, 7, 0, 1, 0, 0, 1, 200})            // NaNs of both signs
	f.Add([]byte{1, 255, 2, 130, 3, 7, 4, 9, 0, 5, 0, 4})    // negatives and ±Inf
	f.Add([]byte{4, 1, 4, 0, 10, 2, 4, 2})                   // low bytes only
	f.Add([]byte{5, 1, 11, 2, 17, 3, 23, 200, 29, 77, 3, 1}) // raw bit patterns
	f.Fuzz(func(t *testing.T, data []byte) {
		times := make([]float64, len(data)/2)
		for i := range times {
			times[i] = fuzzTime(data[2*i], data[2*i+1])
		}
		got, want := NewSortedTimes(times), sortedTimesReference(times)
		for i := range want.Idx {
			if got.Idx[i] != want.Idx[i] || math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) {
				t.Fatalf("times %v: position %d holds path %d (%v), reference path %d (%v)",
					times, i, got.Idx[i], got.Times[i], want.Idx[i], want.Times[i])
			}
		}
		if len(got.Idx) != len(want.Idx) || len(got.Times) != len(want.Times) {
			t.Fatalf("times %v: %d/%d entries, reference %d", times, len(got.Idx), len(got.Times), len(want.Idx))
		}
	})
}

func BenchmarkCompiledPathProbs(b *testing.B) {
	for _, k := range []int{8, 10, 12} {
		p, _ := diamondChain(k)
		paths, _ := Enumerate(p, EnumerateOptions{MaxVisits: 6, MaxPaths: 1 << 13})
		cp := Compile(p, paths)
		ep := Uniform(p)
		q := cp.Index.Dense(ep)
		logq := make([]float64, cp.Index.Len())
		out := make([]float64, cp.NumPaths())
		b.Run(fmt.Sprintf("paths=%d", len(paths)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp.LogProbs(q, logq)
				cp.PathProbs(logq, out)
			}
		})
	}
}

func BenchmarkPathProbsReference(b *testing.B) {
	for _, k := range []int{8, 10, 12} {
		p, _ := diamondChain(k)
		paths, _ := Enumerate(p, EnumerateOptions{MaxVisits: 6, MaxPaths: 1 << 13})
		ep := Uniform(p)
		out := make([]float64, len(paths))
		b.Run(fmt.Sprintf("paths=%d", len(paths)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, path := range paths {
					out[j] = path.Prob(ep)
				}
			}
		})
	}
}
