package markov

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// EdgeIndex assigns every CFG edge of one procedure a dense index so the
// estimation hot loops can replace map lookups with slice indexing. Indices
// are assigned in (block ID, successor order) — a deterministic layout that
// matches the iteration order of the reference (map-based) estimators at
// the API boundary. Each block's out-edges are contiguous, so a lookup is a
// scan of the source block's few successors, not a map probe.
type EdgeIndex struct {
	edges [][2]ir.BlockID
	// start[b] .. start[b+1] bounds block b's out-edges in edges.
	start []int32
}

// NewEdgeIndex builds the dense edge numbering of a procedure.
func NewEdgeIndex(p *cfg.Proc) *EdgeIndex {
	ix := &EdgeIndex{start: make([]int32, len(p.Blocks)+1)}
	for _, b := range p.Blocks {
		own := len(ix.edges)
		for _, s := range b.Succs() {
			if e := [2]ir.BlockID{b.ID, s}; !slices.Contains(ix.edges[own:], e) {
				ix.edges = append(ix.edges, e)
			}
		}
		ix.start[b.ID+1] = int32(len(ix.edges))
	}
	return ix
}

// Len returns the number of indexed edges.
func (ix *EdgeIndex) Len() int { return len(ix.edges) }

// Index returns the dense index of an edge.
func (ix *EdgeIndex) Index(e [2]ir.BlockID) (int32, bool) {
	if uint(e[0]) >= uint(len(ix.start)-1) {
		return 0, false
	}
	lo, hi := ix.start[e[0]], ix.start[e[0]+1]
	for i, f := range ix.edges[lo:hi] {
		if f[1] == e[1] {
			return lo + int32(i), true
		}
	}
	return 0, false
}

// arcIndex returns the dense index of a path arc's edge. Every path
// Enumerate or SamplePath builds traverses CFG edges only, so a miss is a
// bug in whoever built the path or a path passed with the wrong procedure.
func (ix *EdgeIndex) arcIndex(e [2]ir.BlockID) int32 {
	i, ok := ix.Index(e)
	if !ok {
		panic(fmt.Sprintf("markov: path arc %v is not a CFG edge", e))
	}
	return i
}

// Dense projects an EdgeProbs map onto the dense layout. Edges missing from
// the map get probability 0.
func (ix *EdgeIndex) Dense(ep EdgeProbs) []float64 {
	out := make([]float64, len(ix.edges))
	for i, e := range ix.edges {
		out[i] = ep[e]
	}
	return out
}

// Probs converts a dense probability vector back to the map form used at
// the API boundary.
func (ix *EdgeIndex) Probs(v []float64) EdgeProbs {
	out := make(EdgeProbs, len(ix.edges))
	for i, e := range ix.edges {
		out[e] = v[i]
	}
	return out
}

// CompiledPaths is the dense, cache-friendly form of an enumerated path
// set: every path's arcs stored back to back in CSR layout as
// (edge index, traversal count) pairs. Path.Prob over the map form and
// PathProbs over this form are bit-for-bit identical — same arc order, same
// sequence of floating-point operations — so estimators can switch freely.
type CompiledPaths struct {
	Index *EdgeIndex
	// arcStart[j] .. arcStart[j+1] bounds path j's arcs in arcEdge/arcCount.
	arcStart []int32
	arcEdge  []int32
	// arcCount holds float64(Arc.Count) so the inner loop is a pure fused
	// multiply-sum with no int→float conversions.
	arcCount []float64
}

// Compile builds the dense form of a path set enumerated from p.
func Compile(p *cfg.Proc, paths []*Path) *CompiledPaths {
	ix := NewEdgeIndex(p)
	cp := &CompiledPaths{Index: ix, arcStart: make([]int32, len(paths)+1)}
	n := 0
	for _, path := range paths {
		n += len(path.Arcs)
	}
	cp.arcEdge = make([]int32, 0, n)
	cp.arcCount = make([]float64, 0, n)
	for j, path := range paths {
		cp.arcEdge = append(cp.arcEdge, path.denseEdges(ix)...)
		for _, a := range path.Arcs {
			cp.arcCount = append(cp.arcCount, float64(a.Count))
		}
		cp.arcStart[j+1] = int32(len(cp.arcEdge))
	}
	return cp
}

// NumPaths returns the number of compiled paths.
func (cp *CompiledPaths) NumPaths() int { return len(cp.arcStart) - 1 }

// LogProbs fills logq[i] = log(q[i]) for every indexed edge, with
// non-positive probabilities mapped to -Inf (so a path using such an edge
// gets probability exp(-Inf) = 0, exactly like Path.Prob's early return).
// This is the shared per-iteration table: one log per edge instead of one
// per arc per path.
func (cp *CompiledPaths) LogProbs(q, logq []float64) {
	for i, p := range q {
		if p <= 0 {
			logq[i] = math.Inf(-1)
		} else {
			logq[i] = math.Log(p)
		}
	}
}

// PathProbs computes every path's probability from the shared log table:
// out[j] = exp(Σ count·logq[edge]) over path j's arcs in order. The sum
// runs in the same arc order with the same operations as Path.Prob, so the
// results are bit-identical to the map-based form.
func (cp *CompiledPaths) PathProbs(logq, out []float64) {
	for j := 0; j+1 < len(cp.arcStart); j++ {
		logp := 0.0
		for a := cp.arcStart[j]; a < cp.arcStart[j+1]; a++ {
			logp += cp.arcCount[a] * logq[cp.arcEdge[a]]
		}
		out[j] = math.Exp(logp)
	}
}

// Arcs returns path j's arcs as parallel slices of dense edge indices and
// traversal counts, in arc order.
func (cp *CompiledPaths) Arcs(j int) (edges []int32, counts []float64) {
	lo, hi := cp.arcStart[j], cp.arcStart[j+1]
	return cp.arcEdge[lo:hi], cp.arcCount[lo:hi]
}

// AccumulateArcs adds gamma·count to w[edge] for each arc of path j, in
// arc order — the estimators' M-step accumulation. The fixed order keeps
// floating-point sums reproducible run to run.
func (cp *CompiledPaths) AccumulateArcs(j int, gamma float64, w []float64) {
	for a := cp.arcStart[j]; a < cp.arcStart[j+1]; a++ {
		w[cp.arcEdge[a]] += gamma * cp.arcCount[a]
	}
}

// SortedTimes is the binary-search index over a path set's deterministic
// durations: times ascending, ties broken by path index, with Idx mapping
// each sorted position back to the original path index.
type SortedTimes struct {
	Times []float64
	Idx   []int32
}

// NewSortedTimes indexes a PathTimes slice for O(log n) window and
// nearest-path queries. The order is cmp.Compare's with ties by path
// index: a stable LSD radix sort, one pass per byte of timeKey, from the
// identity permutation. A byte every key shares is skipped, so integral
// cycle counts take a few passes, not eight.
func NewSortedTimes(times []float64) *SortedTimes {
	n := len(times)
	st := &SortedTimes{Times: make([]float64, n), Idx: make([]int32, n)}
	var counts [8][256]int
	for i, t := range times {
		st.Idx[i] = int32(i)
		k := timeKey(t)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := st.Idx, []int32(nil)
	for d := range counts {
		c, shift := &counts[d], 8*d
		if n == 0 || c[byte(timeKey(times[0])>>shift)] == n {
			continue
		}
		if dst == nil {
			dst = make([]int32, n)
		}
		sum := 0
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, j := range src {
			b := byte(timeKey(times[j]) >> shift)
			dst[c[b]] = j
			c[b]++
		}
		src, dst = dst, src
	}
	copy(st.Idx, src) // src is whichever of Idx and the scratch the last pass wrote
	for i, j := range st.Idx {
		st.Times[i] = times[j]
	}
	return st
}

// timeKey maps a time to a uint64 whose unsigned order is cmp.Compare's:
// every NaN ties at the lowest key and −0 ties +0. Otherwise a positive
// time sets the sign bit and a negative one flips every bit, so the more
// negative of two negative times sorts lower.
func timeKey(t float64) uint64 {
	switch {
	case t != t:
		return 0
	case t == 0:
		t = 0
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Window returns the half-open sorted-position range [lo, hi) of paths with
// |t − time| <= hw, under the exact floating-point predicate
// math.Abs(t−τ) <= hw that the reference estimator scans for. Correctness
// rests on IEEE-754 subtraction being monotone: fl(t−τ) is nonincreasing in
// τ, so the predicate region is contiguous and both boundaries binary
// search.
func (st *SortedTimes) Window(t, hw float64) (lo, hi int) {
	lo = sort.Search(len(st.Times), func(i int) bool { return t-st.Times[i] <= hw })
	hi = sort.Search(len(st.Times), func(i int) bool { return st.Times[i]-t > hw })
	return lo, hi
}

// Within reports whether any path time lies within width of t (the exact
// predicate math.Abs(t−τ) <= width).
func (st *SortedTimes) Within(t, width float64) bool {
	lo, hi := st.Window(t, width)
	return lo < hi
}

// Nearest returns the original index of the path whose time is closest to
// t, replicating the reference scan exactly: among all paths achieving the
// minimal math.Abs(t−τ), the smallest path index wins. Returns -1 on an
// empty set.
func (st *SortedTimes) Nearest(t float64) int {
	n := len(st.Times)
	if n == 0 {
		return -1
	}
	// Insertion point: first time >= t.
	p := sort.SearchFloat64s(st.Times, t)
	best := math.Inf(1)
	if p > 0 {
		best = math.Abs(t - st.Times[p-1])
	}
	if p < n {
		if d := math.Abs(t - st.Times[p]); d < best {
			best = d
		}
	}
	// Distances are nondecreasing moving away from the insertion point, so
	// every path achieving the minimum sits in the two runs adjacent to it.
	idx := -1
	for i := p - 1; i >= 0 && math.Abs(t-st.Times[i]) == best; i-- {
		if j := int(st.Idx[i]); idx < 0 || j < idx {
			idx = j
		}
	}
	for i := p; i < n && math.Abs(t-st.Times[i]) == best; i++ {
		if j := int(st.Idx[i]); idx < 0 || j < idx {
			idx = j
		}
	}
	return idx
}
