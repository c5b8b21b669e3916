package markov

import (
	"math"
	"slices"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// Arc is one traversed edge of a path with its traversal count.
type Arc struct {
	Edge  [2]ir.BlockID
	Count int
}

// Path is one complete execution path from the entry to a return block,
// stored as the edges it traverses: its entry block plus, per traversed
// edge, how many times the path takes it. That is all the estimators need
// (path probability and duration); the block order along the path is not
// kept. A block's visit count is its entry flag plus the counts of the arcs
// into it.
type Path struct {
	Entry ir.BlockID
	// Arcs lists the traversed edges in order of first traversal, each
	// edge once. All arithmetic over paths iterates Arcs in this order so
	// results are bit-for-bit reproducible across runs.
	Arcs []Arc
	// edges[k] is the dense index (NewEdgeIndex of the enumerated
	// procedure) of Arcs[k].Edge, recorded by Enumerate so Compile and
	// PathTimes need no lookup; nil on paths built elsewhere.
	edges []int32
}

// denseEdges returns the dense index of each arc's edge under ix, the
// index of the procedure the path runs through: the indices Enumerate
// recorded, or else looked up.
func (p *Path) denseEdges(ix *EdgeIndex) []int32 {
	if len(p.edges) == len(p.Arcs) {
		return p.edges
	}
	edges := make([]int32, len(p.Arcs))
	for k, a := range p.Arcs {
		edges[k] = ix.arcIndex(a.Edge)
	}
	return edges
}

// Prob returns the path's probability under the given edge probabilities:
// the product of edge probabilities over traversals.
func (p *Path) Prob(probs EdgeProbs) float64 {
	logp := 0.0
	for _, a := range p.Arcs {
		q := probs[a.Edge]
		if q <= 0 {
			return 0
		}
		logp += float64(a.Count) * math.Log(q)
	}
	return math.Exp(logp)
}

// EnumerateOptions bounds the path enumeration.
type EnumerateOptions struct {
	// MaxVisits caps how many times any single block may appear on a path
	// (the loop unrolling bound). Minimum 1.
	MaxVisits int
	// MaxPaths caps the number of paths returned.
	MaxPaths int
}

// DefaultEnumerateOptions bounds enumeration to 6 visits per block and
// 4096 paths — enough for the sensor kernels' CFGs while keeping the EM
// e-step cheap.
func DefaultEnumerateOptions() EnumerateOptions {
	return EnumerateOptions{MaxVisits: 6, MaxPaths: 4096}
}

// Enumerate lists execution paths of the procedure by depth-first search
// with a per-block visit cap. truncated reports whether any path was cut
// off by the caps (its probability mass is missing from the returned set;
// estimators renormalize over the enumerated paths).
//
// The search keeps, per dense edge, how often the current prefix traverses
// it, and a stack of the prefix's edges in first-traversal order: an edge
// is pushed when its count goes 0→1 and popped when it returns 1→0, which
// is last-in first-out because the search unwinds in reverse. A leaf copies
// that stack and its counts out as the path's arcs, into chunks shared by
// the whole path set, so no path costs a map or an allocation of its own.
func Enumerate(p *cfg.Proc, opts EnumerateOptions) (paths []*Path, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 4096
	}
	ix := NewEdgeIndex(p)
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
	count := make([]int, ix.Len())
	stack := make([]int32, 0, ix.Len())
	arena := pathArena{left: opts.MaxPaths}

	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if arena.left == 0 || visits[id] >= opts.MaxVisits {
			truncated = true
			return
		}
		visits[id]++
		out := succ[succStart[id]:succStart[id+1]]
		if len(out) == 0 {
			arena.path(p.Entry, ix, stack, count)
		}
		for _, e := range out {
			count[e]++
			if count[e] == 1 {
				stack = append(stack, e)
			}
			walk(ix.edges[e][1])
			if count[e] == 1 {
				stack = stack[:len(stack)-1]
			}
			count[e]--
		}
		visits[id]--
	}
	walk(p.Entry)
	return arena.out, truncated
}

// pathArena collects the enumerated paths, handing out the Paths and their
// arcs from shared chunks. A new chunk doubles the last one but holds no
// more than the paths the cap still allows need (at the mean path length
// so far), so the number of allocations grows with the logarithm of the
// path set, and a set that reaches the cap wastes little of its last
// chunk. The result slice grows by the same rule.
type pathArena struct {
	out   []*Path
	paths []Path
	arcs  []Arc
	edges []int32
	// left is how many more paths the cap allows; nArcs counts the arcs
	// handed out so far.
	left, nArcs int
}

// path appends a path whose arcs are the search's first-traversal stack
// and its edge counts.
func (a *pathArena) path(entry ir.BlockID, ix *EdgeIndex, stack []int32, count []int) {
	if len(a.out) == cap(a.out) {
		a.out = slices.Grow(a.out, min(max(1, len(a.out)), a.left))
	}
	if len(a.paths) == cap(a.paths) {
		a.paths = make([]Path, 0, min(max(1, 2*cap(a.paths)), a.left))
	}
	if k := len(stack); cap(a.arcs)-len(a.arcs) < k {
		size := 4 * k
		if n := len(a.out); n > 0 {
			mean := (a.nArcs + n - 1) / n
			size = min(2*cap(a.arcs), a.left*mean)
		}
		a.arcs = make([]Arc, 0, max(k, size))
		a.edges = make([]int32, 0, cap(a.arcs))
	}
	lo := len(a.arcs)
	for _, e := range stack {
		a.arcs = append(a.arcs, Arc{Edge: ix.edges[e], Count: count[e]})
	}
	a.edges = append(a.edges, stack...)
	hi := len(a.arcs)
	a.paths = append(a.paths, Path{Entry: entry, Arcs: a.arcs[lo:hi:hi], edges: a.edges[lo:hi:hi]})
	a.out = append(a.out, &a.paths[len(a.paths)-1])
	a.left--
	a.nArcs += len(stack)
}

// PathTimes computes each path's deterministic duration from the chain
// costs: EntryOverhead + Block[entry] + Σ count·(Block[to] + Edge[e]) over
// the path's arcs in order. Every block visit after the entry is reached
// over exactly one edge traversal, so this charges each visit once, the
// same total as summing the block sequence. With compile-derived costs
// (whole cycles) every partial sum is an exact integer, so the result is
// the same in any summation order.
func PathTimes(p *cfg.Proc, paths []*Path, costs *Costs) []float64 {
	ix := NewEdgeIndex(p)
	step := make([]float64, ix.Len())
	for i, e := range ix.edges {
		step[i] = costs.Block[int(e[1])] + costs.Edge[e]
	}
	times := make([]float64, len(paths))
	for j, path := range paths {
		t := costs.EntryOverhead + costs.Block[int(path.Entry)]
		for k, e := range path.denseEdges(ix) {
			t += float64(path.Arcs[k].Count) * step[e]
		}
		times[j] = t
	}
	return times
}

// SamplePath draws a random path through the chain (used by tests and the
// synthetic-chain experiments). rng is any func returning uniform [0,1).
// maxSteps guards against non-absorbing chains; a nil path is returned if
// the walk fails to absorb.
func (c *Chain) SamplePath(rng func() float64, maxSteps int) *Path {
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	cur := c.proc.Entry
	path := &Path{Entry: cur}
	for step := 0; step < maxSteps; step++ {
		succs := c.proc.Block(cur).Succs()
		if len(succs) == 0 {
			return path
		}
		u := rng()
		acc := 0.0
		next := succs[len(succs)-1]
		for _, s := range succs {
			acc += c.probs[[2]ir.BlockID{cur, s}]
			if u < acc {
				next = s
				break
			}
		}
		e := [2]ir.BlockID{cur, next}
		k := slices.IndexFunc(path.Arcs, func(a Arc) bool { return a.Edge == e })
		if k < 0 {
			k = len(path.Arcs)
			path.Arcs = append(path.Arcs, Arc{Edge: e})
		}
		path.Arcs[k].Count++
		cur = next
	}
	return nil
}
