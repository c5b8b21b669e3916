package markov

import (
	"math"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// Arc is one traversed edge of a path: the edge's dense index under the
// procedure's EdgeIndex and how many times the path takes it.
type Arc struct {
	Edge, Count int32
}

// Path is one complete execution path from the procedure's entry to a
// return block, stored as the edges it traverses: each edge once, in order
// of first traversal, with its traversal count. That is all the estimators
// need (path probability and duration); the block order along the path is
// not kept. A block's visit count is its entry flag plus the counts of the
// arcs into it. All arithmetic over a path iterates its arcs in order, so
// results are bit-for-bit reproducible across runs.
type Path []Arc

// Accumulate adds gamma·count to w[edge] for each arc, in arc order — the
// estimators' M-step accumulation.
func (p Path) Accumulate(gamma float64, w []float64) {
	for _, a := range p {
		w[a.Edge] += gamma * float64(a.Count)
	}
}

// LogProbs fills logq[i] = log(q[i]) for every indexed edge, with
// non-positive probabilities mapped to -Inf (so a path using such an edge
// gets probability exp(-Inf) = 0). This is the shared per-iteration table:
// one log per edge instead of one per arc per path. logq may be q.
func LogProbs(q, logq []float64) {
	for i, p := range q {
		if p <= 0 {
			logq[i] = math.Inf(-1)
		} else {
			logq[i] = math.Log(p)
		}
	}
}

// PathProbs computes every path's probability from the shared log table:
// out[j] = exp(Σ count·logq[edge]) over path j's arcs in order.
func PathProbs(paths []Path, logq, out []float64) {
	for j, p := range paths {
		logp := 0.0
		for _, a := range p {
			logp += float64(a.Count) * logq[a.Edge]
		}
		out[j] = math.Exp(logp)
	}
}

// EnumerateOptions bounds the path enumeration.
type EnumerateOptions struct {
	// MaxVisits caps how many times any single block may appear on a path
	// (the loop unrolling bound). Minimum 1.
	MaxVisits int
	// MaxPaths caps the number of paths enumerated, the sum of the
	// returned multiplicities; with MaxPaths <= 0 none are.
	MaxPaths int
}

// Enumerate lists the procedure's execution paths by depth-first search
// with a per-block visit cap, folded into arc-count classes; ix must be
// p's EdgeIndex. Paths taking every edge equally often have the same
// probability and duration, one mixture component: paths[c] is class c's
// first path and mult[c] its number of paths. Classes come in the order
// the search first completes them, so where every multiplicity is 1 they
// are the paths in search order. truncated reports whether the caps cut
// any path off (its probability mass is missing; estimators renormalize
// over the enumerated paths).
//
// The search keeps, per dense edge, how often the current prefix traverses
// it, a stack of the prefix's edges in first-traversal order (an edge is
// pushed when its count goes 0→1 and popped when it returns 1→0, which is
// last-in first-out because the search unwinds in reverse), and the hash
// Σ count·edgeHash(edge). At a leaf the hash picks the candidate classes
// (all of them, in a small set), whose arcs are compared with the counts;
// a new class's arcs are carved from chunks that double in size.
func Enumerate(p *cfg.Proc, ix *EdgeIndex, opts EnumerateOptions) (paths []Path, mult []int, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	// succ[succStart[b]:succStart[b+1]] holds block b's out-edges as dense
	// indices in successor order; a repeated successor repeats its edge and
	// is followed twice.
	succStart := make([]int32, len(p.Blocks)+1)
	succ := make([]int32, 0, ix.Len())
	for _, b := range p.Blocks {
		for _, s := range b.Succs() {
			succ = append(succ, ix.arcIndex([2]ir.BlockID{b.ID, s}))
		}
		succStart[b.ID+1] = int32(len(succ))
	}
	visits := make([]int, len(p.Blocks))
	count := make([]int32, ix.Len())
	stack := make([]int32, 0, ix.Len())
	left, h := opts.MaxPaths, uint64(0)
	// Past smallClasses classes, first maps a hash to the first class
	// with it. arcs is the chunk new classes' arcs are carved from.
	var (
		arcs  []Arc
		first map[uint64]int
	)
	same := func(c int) bool {
		if len(paths[c]) != len(stack) {
			return false
		}
		for _, a := range paths[c] {
			if count[a.Edge] != a.Count {
				return false
			}
		}
		return true
	}
	leaf := func() {
		left--
		c, ok := 0, true
		if first != nil {
			c, ok = first[h]
		}
		for ; ok && c < len(mult); c++ {
			if same(c) {
				mult[c]++
				return
			}
		}
		if first == nil && len(mult) == smallClasses {
			first = make(map[uint64]int)
			for c := len(mult) - 1; c >= 0; c-- {
				ch := uint64(0)
				for _, a := range paths[c] {
					ch += uint64(a.Count) * edgeHash(a.Edge)
				}
				first[ch] = c
			}
		}
		if _, ok := first[h]; first != nil && !ok {
			first[h] = len(mult)
		}
		if cap(arcs)-len(arcs) < len(stack) {
			// A full chunk is left to the classes it holds; the next
			// doubles it, so nothing is copied.
			arcs = make([]Arc, 0, max(4*len(stack), 2*cap(arcs)))
		}
		lo := len(arcs)
		for _, e := range stack {
			arcs = append(arcs, Arc{Edge: e, Count: count[e]})
		}
		paths, mult = append(paths, arcs[lo:len(arcs):len(arcs)]), append(mult, 1)
	}

	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if left <= 0 || visits[id] >= opts.MaxVisits {
			truncated = true
			return
		}
		visits[id]++
		out := succ[succStart[id]:succStart[id+1]]
		if len(out) == 0 {
			leaf()
		}
		for _, e := range out {
			count[e]++
			h += edgeHash(e)
			if count[e] == 1 {
				stack = append(stack, e)
			}
			walk(ix.edges[e][1])
			if count[e] == 1 {
				stack = stack[:len(stack)-1]
			}
			h -= edgeHash(e)
			count[e]--
		}
		visits[id]--
	}
	walk(p.Entry)
	return paths, mult, truncated
}

// smallClasses is the class count up to which Enumerate finds a leaf's
// class by comparing it with every class, with no hash table.
const smallClasses = 32

// edgeHash is the splitmix64 finalizer of an edge index: a count vector's
// hash is Σ count·edgeHash(edge) over its edges.
func edgeHash(e int32) uint64 {
	x := uint64(e) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// PathTimes computes each path's deterministic duration from the chain
// costs: EntryOverhead + Block[entry] + Σ count·(Block[to] + Edge[e]) over
// the path's arcs in order; ix must be p's EdgeIndex. Every block visit
// after the entry is reached over exactly one edge traversal, so this
// charges each visit once, the same total as summing the block sequence.
// With compile-derived costs (whole cycles) every partial sum is an exact
// integer, so the result is the same in any summation order.
func PathTimes(p *cfg.Proc, ix *EdgeIndex, paths []Path, costs *Costs) []float64 {
	step := make([]float64, ix.Len())
	for i, e := range ix.edges {
		step[i] = costs.Block[int(e[1])] + costs.Edge[e]
	}
	entry := costs.EntryOverhead + costs.Block[int(p.Entry)]
	times := make([]float64, len(paths))
	for j, path := range paths {
		t := entry
		for _, a := range path {
			t += float64(a.Count) * step[a.Edge]
		}
		times[j] = t
	}
	return times
}
