package markov

import (
	"math"
	"slices"

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
	// MaxPaths caps the number of paths returned; with MaxPaths <= 0
	// none are.
	MaxPaths int
}

// Enumerate lists execution paths of the procedure by depth-first search
// with a per-block visit cap; ix must be p's EdgeIndex. truncated reports
// whether any path was cut off by the caps (its probability mass is
// missing from the returned set; estimators renormalize over the
// enumerated paths).
//
// The search keeps, per dense edge, how often the current prefix traverses
// it, and a stack of the prefix's edges in first-traversal order: an edge
// is pushed when its count goes 0→1 and popped when it returns 1→0, which
// is last-in first-out because the search unwinds in reverse. A leaf copies
// that stack and its counts out as the path's arcs, into chunks shared by
// the whole path set, so no path costs an allocation of its own.
func Enumerate(p *cfg.Proc, ix *EdgeIndex, opts EnumerateOptions) (paths []Path, truncated bool) {
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
	arena := pathArena{left: opts.MaxPaths}

	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if arena.left <= 0 || visits[id] >= opts.MaxVisits {
			truncated = true
			return
		}
		visits[id]++
		out := succ[succStart[id]:succStart[id+1]]
		if len(out) == 0 {
			arena.path(stack, count)
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

// pathArena collects the enumerated paths, carving their arcs from shared
// chunks. A new chunk doubles the last one but holds no more than the
// paths the cap still allows need (at the mean path length so far), so the
// number of allocations grows with the logarithm of the path set, and a
// set that reaches the cap wastes little of its last chunk. The result
// slice grows by the same rule.
type pathArena struct {
	out  []Path
	arcs []Arc
	// left is how many more paths the cap allows; nArcs counts the arcs
	// handed out so far.
	left, nArcs int
}

// path appends a path whose arcs are the search's first-traversal stack
// and its edge counts.
func (a *pathArena) path(stack []int32, count []int32) {
	if n := len(a.out); n == cap(a.out) {
		out := make([]Path, n, n+min(max(1, n), a.left))
		copy(out, a.out)
		a.out = out
	}
	if k := len(stack); cap(a.arcs)-len(a.arcs) < k {
		size := 4 * k
		if n := len(a.out); n > 0 {
			mean := (a.nArcs + n - 1) / n
			size = min(2*cap(a.arcs), a.left*mean)
		}
		a.arcs = make([]Arc, 0, max(k, size))
	}
	lo := len(a.arcs)
	for _, e := range stack {
		a.arcs = append(a.arcs, Arc{Edge: e, Count: count[e]})
	}
	hi := len(a.arcs)
	a.out = append(a.out, a.arcs[lo:hi:hi])
	a.left--
	a.nArcs += len(stack)
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

// SamplePath draws a random path through the chain (the tests' sampler of
// ground-truth durations), with arcs indexed by ix, the EdgeIndex of
// the chain's procedure. rng is any func returning uniform [0,1). maxSteps
// guards against non-absorbing chains; ok is false if the walk fails to
// absorb.
func (c *Chain) SamplePath(ix *EdgeIndex, rng func() float64, maxSteps int) (path Path, ok bool) {
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	cur := c.proc.Entry
	for step := 0; step < maxSteps; step++ {
		succs := c.proc.Block(cur).Succs()
		if len(succs) == 0 {
			return path, true
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
		e := ix.arcIndex([2]ir.BlockID{cur, next})
		k := slices.IndexFunc(path, func(a Arc) bool { return a.Edge == e })
		if k < 0 {
			k = len(path)
			path = append(path, Arc{Edge: e})
		}
		path[k].Count++
		cur = next
	}
	return nil, false
}
